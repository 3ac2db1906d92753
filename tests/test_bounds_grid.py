"""Auto-derived (P, L) bounds grids: monotone sweeps that cross the
feasibility transition, for scenarios and raw ensembles alike."""

import numpy as np
import pytest

from repro.experiments import get_method, run_sweep
from repro.scenarios import materialize_instances, get_scenario
from repro.solve import derive_bounds_grid


@pytest.fixture(scope="module")
def tiny_hom_grid():
    return derive_bounds_grid("section8-hom", n_points=5, n_instances=6)


class TestDerivation:
    def test_grid_shape_and_monotonicity(self, tiny_hom_grid):
        g = tiny_hom_grid
        assert len(g.periods) == len(g.latencies) == len(g.quantiles) == 5
        assert list(g.periods) == sorted(g.periods)
        assert list(g.latencies) == sorted(g.latencies)
        assert g.max_period >= g.periods[-1]
        assert g.max_latency >= g.latencies[-1]
        assert g.n_instances == 6

    def test_grid_spans_the_transition(self, tiny_hom_grid):
        """The low end sits at the analytic lower bound (hard), the
        high end at the unbounded-solve max (certainly feasible)."""
        instances = materialize_instances(
            get_scenario("section8-hom").spec.with_(n_instances=6)
        )
        lo = min(float(np.max(c.work)) / float(np.max(p.speeds)) for c, p in instances)
        assert tiny_hom_grid.periods[0] == pytest.approx(lo)
        assert tiny_hom_grid.periods[-1] > 2 * tiny_hom_grid.periods[0]

    def test_deterministic(self):
        a = derive_bounds_grid("section8-hom", n_points=4, n_instances=3)
        b = derive_bounds_grid("section8-hom", n_points=4, n_instances=3)
        assert a == b

    def test_explicit_instances_and_quantiles(self):
        instances = materialize_instances(
            get_scenario("section8-hom").spec.with_(n_instances=4, n_tasks=6, p=4)
        )
        g = derive_bounds_grid(instances, n_points=3)
        assert g.quantiles == (0.0, 0.5, 1.0)
        assert len(g.periods) == 3

    def test_paired_scenario_uses_het_side(self):
        g = derive_bounds_grid("section8-het", n_points=3, n_instances=3)
        assert g.n_instances == 3

    def test_sweeps(self, tiny_hom_grid):
        g = tiny_hom_grid
        period_sweep = g.sweep("period")
        assert [P for P, _ in period_sweep] == list(g.periods)
        assert all(L == g.max_latency for _, L in period_sweep)
        latency_sweep = g.sweep("latency")
        assert [L for _, L in latency_sweep] == list(g.latencies)
        assert g.xs("period") == list(g.periods)
        with pytest.raises(ValueError, match="unknown sweep axis"):
            g.sweep("both")

    def test_describe_is_json_ready(self, tiny_hom_grid):
        import json

        record = tiny_hom_grid.describe()
        assert json.loads(json.dumps(record)) == record
        assert record["method"] == "heuristic"

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 grid points"):
            derive_bounds_grid("section8-hom", n_points=1, n_instances=2)
        with pytest.raises(ValueError, match="at least one instance"):
            derive_bounds_grid([])


class TestPaperStyleCurves:
    def test_counts_rise_across_the_grid(self):
        """The acceptance shape: a multi-point sweep over a derived
        grid produces a non-decreasing solution-count curve ending at
        the full ensemble."""
        spec = get_scenario("section8-hom").spec.with_(n_instances=6)
        instances = materialize_instances(spec)
        grid = derive_bounds_grid(instances, n_points=5)
        sweep = run_sweep(
            instances,
            [get_method("heur-p")],
            grid.sweep("period"),
            xs=grid.xs("period"),
        )
        counts = sweep.counts("heur-p")
        assert counts.shape == (5,)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == len(instances)  # everyone's own solution fits
        assert counts[0] < len(instances)  # the low end is genuinely hard
