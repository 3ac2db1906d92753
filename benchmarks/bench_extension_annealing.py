"""Extension bench — simulated annealing vs the Section 7 heuristics.

On heterogeneous instances (where no exact polynomial method exists,
Theorem 5), measures how much reliability the annealing search recovers
over the Heur-L/Heur-P two-step decomposition, and at what cost.
"""

import numpy as np

from benchmarks.conftest import BENCH_CONFIG, emit
from repro.algorithms import heuristic_best
from repro.core import random_chain, random_platform
from repro.extensions import anneal_mapping


def test_extension_annealing(benchmark):
    cfg = BENCH_CONFIG
    n_inst = max(6, cfg["n_instances"] // 4)
    rng = np.random.default_rng(cfg["seed"])
    P, L = 40.0, 160.0

    improved = 0
    compared = 0
    ratios = []
    for _ in range(n_inst):
        sub = np.random.default_rng(rng.integers(2**63))
        chain = random_chain(10, sub)
        platform = random_platform(8, sub)
        heur = heuristic_best(chain, platform, max_period=P, max_latency=L)
        ann = anneal_mapping(
            chain, platform, max_period=P, max_latency=L,
            iterations=800, rng=sub,
        )
        if not heur.feasible:
            continue
        compared += 1
        # Warm-started annealing never loses to its starting point.
        assert ann.feasible
        assert ann.log_reliability >= heur.log_reliability - 1e-12
        if ann.log_reliability > heur.log_reliability * (1 - 1e-9):
            pass
        if ann.log_reliability > heur.log_reliability:
            improved += 1
            ratios.append(
                heur.evaluation.failure_probability
                / max(ann.evaluation.failure_probability, 1e-300)
            )

    emit()
    emit(
        f"annealing strictly improved {improved}/{compared} feasible instances; "
        f"median failure-probability gain "
        f"{np.median(ratios) if ratios else 1.0:.2f}x"
    )

    chain = random_chain(10, rng=3)
    platform = random_platform(8, rng=3)
    benchmark.pedantic(
        lambda: anneal_mapping(
            chain, platform, max_period=P, max_latency=L, iterations=800, rng=5
        ),
        rounds=1,
        iterations=1,
    )
