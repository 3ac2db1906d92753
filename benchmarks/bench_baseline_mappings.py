"""Ablation — interval mappings vs the Section 1 baselines.

The paper's opening argument: interval mappings dominate one-to-one
mappings (communication overhead, and they exist when n > p) and allow
period/latency trade-offs a monolithic mapping cannot.  Measured here
on a suite of homogeneous instances: feasibility counts and reliability
of the exact interval mapping vs the one-to-one and single-interval
baselines, at a moderate (P, L) operating point.
"""

import numpy as np

from benchmarks.conftest import BENCH_CONFIG, emit
from repro.algorithms import one_to_one_best, pareto_dp_best, single_interval_best
from repro.core import Platform, random_chain


def test_baseline_mappings(benchmark):
    cfg = BENCH_CONFIG
    n_inst = max(8, cfg["n_instances"] // 2)
    rng = np.random.default_rng(cfg["seed"])
    # 8 tasks on 10 processors so one-to-one is *possible* (n <= p).
    platform = Platform.homogeneous_platform(
        10, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=3
    )
    P, L = 150.0, 450.0

    counts = {"interval": 0, "one-to-one": 0, "single": 0}
    wins = 0
    comparisons = 0
    for k in range(n_inst):
        chain = random_chain(8, np.random.default_rng(rng.integers(2**63)))
        interval = pareto_dp_best(chain, platform, max_period=P, max_latency=L)
        o2o = one_to_one_best(chain, platform, max_period=P, max_latency=L)
        mono = single_interval_best(chain, platform, max_period=P, max_latency=L)
        counts["interval"] += interval.feasible
        counts["one-to-one"] += o2o.feasible
        counts["single"] += mono.feasible
        # Interval mapping dominates wherever a baseline is feasible.
        for base in (o2o, mono):
            if base.feasible:
                comparisons += 1
                assert interval.feasible
                assert interval.log_reliability >= base.log_reliability - 1e-15
                if interval.log_reliability > base.log_reliability:
                    wins += 1

    emit()
    emit(f"feasible at P={P}, L={L} over {n_inst} instances: {counts}")
    emit(f"strict reliability wins of interval mapping: {wins}/{comparisons}")
    # The paper's claim: interval mappings solve at least as many
    # instances as either baseline.
    assert counts["interval"] >= counts["one-to-one"]
    assert counts["interval"] >= counts["single"]

    chain = random_chain(8, rng=1)
    benchmark(
        lambda: one_to_one_best(chain, platform, max_period=P, max_latency=L)
    )
