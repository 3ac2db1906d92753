"""Ablation — the Section 5.4 latency constraint: "paper" vs "full".

The printed integer program bounds only the computation part of the
latency; Eq. (5)/(7) also charge one communication per interval (a
typo of the preprint; see the ``repro.algorithms.ilp_mapping`` module
docstring).  This bench measures how many additional
instances the looser printed constraint accepts — i.e. how much the
typo would distort Figure 8 — and times one full-form solve.
"""


from benchmarks.conftest import BENCH_CONFIG, emit
from repro.algorithms import ilp_best
from repro.experiments.instances import homogeneous_suite


def test_ablation_ilp_latency_terms(benchmark):
    cfg = BENCH_CONFIG
    n = max(6, cfg["n_instances"] // 2)
    instances = homogeneous_suite(n_instances=n, seed=cfg["seed"])
    sweep = [600.0, 700.0, 800.0, 900.0]

    rows = []
    for L in sweep:
        full = sum(
            ilp_best(c, p, max_period=250.0, max_latency=L, latency_terms="full").feasible
            for c, p in instances
        )
        paper = sum(
            ilp_best(c, p, max_period=250.0, max_latency=L, latency_terms="paper").feasible
            for c, p in instances
        )
        rows.append((L, full, paper))

    emit()
    emit(f"latency bound  full-constraint  paper-constraint   ({n} instances)")
    for L, full, paper in rows:
        emit(f"{L:13g}  {full:15d}  {paper:16d}")

    # The printed (computation-only) constraint is a relaxation: it can
    # only accept more instances.
    for _, full, paper in rows:
        assert paper >= full

    chain, plat = instances[0]
    benchmark(
        ilp_best, chain, plat, 250.0, 750.0  # max_period, max_latency
    )
