"""Tests for the Section 8 experiment harness (instances, methods,
sweeps, figures, reporting)."""

import json

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    FIGURES,
    get_method,
    heterogeneous_suite,
    homogeneous_suite,
    render_series_table,
    run_experiment,
    run_figure,
    run_sweep,
    series_to_json,
)
from repro.experiments.report import render_figure

SMALL = dict(n_instances=4, grid="reduced", seed=7)


class TestInstances:
    def test_homogeneous_suite_shape(self):
        suite = homogeneous_suite(n_instances=5, seed=1)
        assert len(suite) == 5
        chain, plat = suite[0]
        assert chain.n == 15
        assert plat.p == 10
        assert plat.homogeneous
        assert plat.max_replication == 3
        assert float(plat.failure_rates[0]) == 1e-8
        assert plat.link_failure_rate == 1e-5

    def test_section8_cost_ranges(self):
        for chain, _ in homogeneous_suite(n_instances=10, seed=2):
            assert np.all((chain.work >= 1) & (chain.work <= 100))
            assert np.all(chain.output[:-1] >= 1) and np.all(chain.output[:-1] <= 10)
            assert chain.output[-1] == 0.0

    def test_reproducible(self):
        a = homogeneous_suite(n_instances=3, seed=9)
        b = homogeneous_suite(n_instances=3, seed=9)
        assert all(ca == cb for (ca, _), (cb, _) in zip(a, b))

    def test_prefix_stability(self):
        """Extending the suite must not change earlier instances."""
        small = homogeneous_suite(n_instances=3, seed=4)
        big = homogeneous_suite(n_instances=6, seed=4)
        assert all(cs == cb for (cs, _), (cb, _) in zip(small, big))

    def test_heterogeneous_suite(self):
        pairs = heterogeneous_suite(n_instances=4, seed=3)
        assert len(pairs) == 4
        for pair in pairs:
            assert not pair.het_platform.homogeneous
            assert pair.hom_platform.homogeneous
            assert float(pair.hom_platform.speeds[0]) == 5.0
            assert np.all(
                (pair.het_platform.speeds >= 1) & (pair.het_platform.speeds <= 100)
            )
            # Same chain against both platforms.
            assert pair.chain.n == 15

    def test_heterogeneous_pair_invariants(self):
        """Section 8.2's pairing contract: the homogeneous counterpart
        re-runs the *exact same chain* on a constant speed-5 platform
        with the same lambda_u = 1e-8 everywhere."""
        pairs = heterogeneous_suite(n_instances=5, seed=17)
        for pair in pairs:
            # One chain serves both platforms, and it follows the same
            # Section 8 cost distributions as the homogeneous suite.
            assert set(pair.__dataclass_fields__) == {
                "chain", "het_platform", "hom_platform"
            }
            assert np.all((pair.chain.work >= 1) & (pair.chain.work <= 100))
            assert np.all(pair.chain.output[:-1] <= 10) and pair.chain.output[-1] == 0.0
            # Constant speed 5 across the whole counterpart platform.
            assert np.all(pair.hom_platform.speeds == 5.0)
            # lambda_u stays 1e-8 on BOTH platforms (speed is the only
            # source of heterogeneity in Section 8.2).
            assert np.all(pair.het_platform.failure_rates == 1e-8)
            assert np.all(pair.hom_platform.failure_rates == 1e-8)
            # The pair shares every remaining platform parameter.
            for plat in (pair.het_platform, pair.hom_platform):
                assert plat.p == 10
                assert plat.bandwidth == 1.0
                assert plat.link_failure_rate == 1e-5
                assert plat.max_replication == 3

    def test_heterogeneous_counterpart_shared_across_pairs(self):
        """One speed-5 platform serves the whole suite (equal for all
        pairs), so truncating the suite never changes it."""
        pairs = heterogeneous_suite(n_instances=3, seed=8)
        assert all(p.hom_platform == pairs[0].hom_platform for p in pairs)
        longer = heterogeneous_suite(n_instances=5, seed=8)
        assert longer[0].hom_platform == pairs[0].hom_platform
        # And the chains it reuses are the het chains, element-wise.
        for short, long in zip(pairs, longer):
            assert short.chain == long.chain
            assert short.het_platform == long.het_platform


class TestMethods:
    def test_registry(self):
        assert get_method("ilp").exact
        assert get_method("heur-l").homogeneous_only is False
        with pytest.raises(ValueError, match="unknown method"):
            get_method("simulated-annealing")

    def test_hom_only_method_rejects_het(self):
        pairs = heterogeneous_suite(n_instances=1, seed=0)
        inst = [(pairs[0].chain, pairs[0].het_platform)]
        with pytest.raises(ValueError, match="homogeneous"):
            run_sweep(inst, [get_method("ilp")], [(50.0, 100.0)])

    def test_paper_variants_registered(self):
        assert get_method("heur-l-paper").name == "heur-l-paper"
        assert get_method("heur-p-paper").name == "heur-p-paper"


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        instances = homogeneous_suite(n_instances=5, seed=11)
        methods = [get_method("pareto-dp"), get_method("heur-l"), get_method("heur-p")]
        bounds = [(100.0, 750.0), (200.0, 750.0), (400.0, 750.0)]
        return run_sweep(instances, methods, bounds)

    def test_counts_shape_and_range(self, sweep):
        counts = sweep.counts("pareto-dp")
        assert counts.shape == (3,)
        assert np.all((0 <= counts) & (counts <= 5))

    def test_exact_counts_dominate_heuristics(self, sweep):
        exact = sweep.counts("pareto-dp")
        assert np.all(exact >= sweep.counts("heur-l"))
        assert np.all(exact >= sweep.counts("heur-p"))

    def test_exact_counts_monotone_in_period(self, sweep):
        exact = sweep.counts("pareto-dp")
        assert np.all(np.diff(exact) >= 0)

    def test_common_rule_uses_shared_instances(self, sweep):
        # Wherever defined, failure averages are in (0, 1).
        for m in ("pareto-dp", "heur-l", "heur-p"):
            avg = sweep.average_failure(m, rule="common")
            finite = avg[~np.isnan(avg)]
            assert np.all((finite > 0) & (finite < 1))

    def test_exact_failure_never_worse_on_common_set(self, sweep):
        exact = sweep.average_failure("pareto-dp", rule="common")
        heur = sweep.average_failure("heur-l", rule="common")
        mask = ~np.isnan(exact) & ~np.isnan(heur)
        assert np.all(exact[mask] <= heur[mask] + 1e-18)

    def test_per_method_rule(self, sweep):
        avg = sweep.average_failure("heur-p", rule="per-method")
        assert avg.shape == (3,)

    def test_unknown_rule_and_method(self, sweep):
        with pytest.raises(ValueError, match="rule"):
            sweep.average_failure("heur-l", rule="median")
        with pytest.raises(ValueError, match="not in sweep"):
            sweep.counts("ilp")

    def test_validation(self):
        with pytest.raises(ValueError, match="instance"):
            run_sweep([], [get_method("heur-l")], [(1.0, 1.0)])
        inst = homogeneous_suite(n_instances=1, seed=0)
        with pytest.raises(ValueError, match="sweep point"):
            run_sweep(inst, [get_method("heur-l")], [])
        with pytest.raises(ValueError, match="align"):
            run_sweep(inst, [get_method("heur-l")], [(1.0, 1.0)], xs=[1.0, 2.0])


class TestFiguresRegistry:
    def test_all_ten_figures_mapped(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(6, 16)}

    def test_pairs_share_experiments(self):
        for spec in EXPERIMENTS.values():
            assert FIGURES[spec.count_figure] == (spec.id, "count")
            assert FIGURES[spec.failure_figure] == (spec.id, "failure")

    def test_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("hom-everything", **SMALL)
        exp = run_experiment("hom-linked", exact_method="pareto-dp", **SMALL)
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig99", exp)


class TestRunFigure:
    @pytest.fixture(scope="class")
    def hom_exp(self):
        return run_experiment("hom-period", exact_method="pareto-dp", **SMALL)

    @pytest.fixture(scope="class")
    def het_exp(self):
        return run_experiment("het-period", **SMALL)

    def test_count_figure_series(self, hom_exp):
        fig = run_figure("fig6", experiment_result=hom_exp)
        assert set(fig.series) == {"ilp", "heur-l", "heur-p"}
        for series in fig.series.values():
            assert series.shape == fig.xs.shape
            assert np.all((0 <= series) & (series <= 4))

    def test_failure_figure_series(self, hom_exp):
        fig = run_figure("fig7", experiment_result=hom_exp)
        assert fig.metric == "failure"
        for series in fig.series.values():
            finite = series[~np.isnan(series)]
            assert np.all((finite >= 0) & (finite <= 1))

    def test_het_figure_has_four_curves(self, het_exp):
        fig = run_figure("fig12", experiment_result=het_exp)
        assert set(fig.series) == {
            "heur-l_het",
            "heur-p_het",
            "heur-l_hom",
            "heur-p_hom",
        }

    def test_het_beats_hom_counterpart(self, het_exp):
        """The paper's headline Section 8.2 finding."""
        fig = run_figure("fig12", experiment_result=het_exp)
        assert fig.series["heur-p_het"].sum() >= fig.series["heur-p_hom"].sum()
        assert fig.series["heur-l_het"].sum() >= fig.series["heur-l_hom"].sum()

    def test_result_mismatch_rejected(self, hom_exp):
        with pytest.raises(ValueError, match="needs"):
            run_figure("fig12", experiment_result=hom_exp)

    def test_exact_method_label_normalized(self, hom_exp):
        # pareto-dp stands in for the ILP but keeps the paper's label.
        fig = run_figure("fig6", experiment_result=hom_exp)
        assert "ilp" in fig.series and "pareto-dp" not in fig.series

    def test_standalone_run_figure(self):
        exp = run_experiment("hom-linked", exact_method="pareto-dp", **SMALL)
        fig = run_figure("fig10", experiment_result=exp)
        assert fig.metric == "count"
        assert fig.experiment == "hom-linked"


class TestReport:
    @pytest.fixture(scope="class")
    def fig(self):
        exp = run_experiment("hom-linked", exact_method="pareto-dp", **SMALL)
        return run_figure("fig10", experiment_result=exp)

    def test_table_renders_all_rows(self, fig):
        table = render_series_table(fig.xs, fig.series, fig.metric)
        lines = table.splitlines()
        assert len(lines) == len(fig.xs) + 2  # header + rule + rows
        assert "ilp" in lines[0]

    def test_render_figure_header(self, fig):
        out = render_figure(fig)
        assert out.startswith("fig10 [hom-linked]: number of solutions")

    def test_json_roundtrip(self, fig):
        payload = json.loads(series_to_json(fig))
        assert payload["figure"] == "fig10"
        assert len(payload["x"]) == len(fig.xs)
        assert set(payload["series"]) == set(fig.series)

    def test_json_nan_becomes_null(self):
        exp = run_experiment("hom-linked", exact_method="pareto-dp", **SMALL)
        fig7 = run_figure("fig11", experiment_result=exp)
        payload = json.loads(series_to_json(fig7))
        flat = [v for vs in payload["series"].values() for v in vs]
        assert all(v is None or 0 <= v <= 1 for v in flat)


class TestAsciiChart:
    @pytest.fixture(scope="class")
    def figs(self):
        from repro.experiments.figures import run_experiment, run_figure

        exp = run_experiment("hom-linked", exact_method="pareto-dp", **SMALL)
        return (
            run_figure("fig10", experiment_result=exp),
            run_figure("fig11", experiment_result=exp),
        )

    def test_count_chart_structure(self, figs):
        from repro.experiments.report import ascii_chart

        chart = ascii_chart(figs[0], height=8, width=40)
        lines = chart.splitlines()
        assert len(lines) == 8 + 2  # rows + x axis + legend
        assert "o=ilp" in lines[-1]

    def test_failure_chart_uses_log_axis(self, figs):
        from repro.experiments.report import ascii_chart

        chart = ascii_chart(figs[1])
        assert "1e" in chart  # log10 tick labels

    def test_invalid_dimensions(self, figs):
        from repro.experiments.report import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart(figs[0], height=1)
