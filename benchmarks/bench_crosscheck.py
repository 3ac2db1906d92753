"""The full validation chain as a benchmark: cost of certainty.

Runs `repro.experiments.crosscheck.run_crosscheck` — four exact solvers,
three RBD evaluators, the heuristics, and the simulator on a shared
population — and asserts zero hard disagreements.  The timing shows what
a complete cross-validation pass costs.
"""

from benchmarks.conftest import BENCH_CONFIG, emit
from repro.experiments.crosscheck import run_crosscheck


def test_crosscheck(benchmark):
    cfg = BENCH_CONFIG
    n = max(4, cfg["n_instances"] // 4)
    report = benchmark.pedantic(
        lambda: run_crosscheck(n_instances=n, seed=cfg["seed"]),
        rounds=1,
        iterations=1,
    )
    emit()
    emit(report.summary())
    for line in report.details:
        emit("  !", line)
    assert report.clean, report.summary()
    # Simulation misses follow the ~5% CI rate; allow generous slack.
    assert report.simulation_outliers <= max(2, n // 3)
