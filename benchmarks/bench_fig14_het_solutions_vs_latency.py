"""Figure 14 — number of solutions vs latency bound, het vs hom (P = 50).

Asserted shape (Section 8.2): for every latency bound the het platforms
admit at least as many solutions as the hom counterparts ("for a given
value of the latency bound, the number of solutions for homogeneous
platforms is clearly smaller"), and the hom curves grow with the bound.
"""

import numpy as np

from benchmarks.conftest import BENCH_CONFIG, run_count_bench, emit
from repro.experiments.figures import run_figure
from repro.experiments.report import render_figure


def test_fig14_het_solutions_vs_latency(benchmark):
    exp = run_count_bench(benchmark, "het-latency")
    fig = run_figure("fig14", experiment_result=exp)
    emit()
    emit(render_figure(fig))

    n = BENCH_CONFIG["n_instances"]
    for h in ("heur-l", "heur-p"):
        het = fig.series[f"{h}_het"]
        hom = fig.series[f"{h}_hom"]
        assert np.all(het >= hom), h
        # Hom counterparts benefit from looser latency bounds.
        assert hom[-1] >= hom[0], h
        # Het solves (nearly) everything by the top of the sweep.
        assert het[-1] >= 0.9 * n, h
