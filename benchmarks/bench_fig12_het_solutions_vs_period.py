"""Figure 12 — number of solutions vs period bound: heterogeneous vs
homogeneous-counterpart platforms (L = 150).

Asserted shape (Section 8.2): "Both heuristics find far more results
with heterogeneous platforms than with homogeneous platforms" — the het
curves dominate the hom curves pointwise and reach (nearly) all
instances at large periods, while a large fraction of instances is
never solved on the hom counterpart.
"""

import numpy as np

from benchmarks.conftest import BENCH_CONFIG, run_count_bench, emit
from repro.experiments.figures import run_figure
from repro.experiments.report import render_figure


def test_fig12_het_solutions_vs_period(benchmark):
    exp = run_count_bench(benchmark, "het-period")
    fig = run_figure("fig12", experiment_result=exp)
    emit()
    emit(render_figure(fig))

    n = BENCH_CONFIG["n_instances"]
    for h in ("heur-l", "heur-p"):
        het = fig.series[f"{h}_het"]
        hom = fig.series[f"{h}_hom"]
        # Het dominates hom pointwise.
        assert np.all(het >= hom), h
        # All (or nearly all) instances solved on het at the largest P.
        assert het[-1] >= 0.9 * n, h
        # A big chunk of instances is never solved on hom.
        assert hom[-1] <= 0.7 * n, h
