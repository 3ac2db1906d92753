"""het-latency-search: the heterogeneous latency gap-closer — scalar
search behavior, registry metadata, planner/facade resolution, and the
sweep round-trip."""

import math

import numpy as np
import pytest

from repro.core import Platform, TaskChain
from repro.experiments import get_method, run_sweep
from repro.extensions.latency_search import minimize_latency_search
from repro.extensions.period_search import DEFAULT_MAX_PROBES, DEFAULT_REL_TOL
from repro.solve import Planner, Problem, solve
from repro.util.logrel import from_reliability


@pytest.fixture
def het_instance():
    chain = TaskChain([6.0, 4.0, 5.0], [1.0, 2.0, 0.0])
    platform = Platform(
        speeds=[2.0, 1.0, 1.5], failure_rates=[1e-4, 1e-5, 1e-4],
        link_failure_rate=1e-5, max_replication=2,
    )
    return chain, platform


class TestScalarSearch:
    def test_matches_oracle_on_tiny_instance(self, het_instance):
        chain, platform = het_instance
        problem = Problem(
            chain, platform, objective="latency", min_reliability=0.5
        )
        search = solve(problem)  # auto -> het-latency-search
        oracle = solve(problem, method="brute-force")
        assert search.method == "het-latency-search" and search.feasible
        assert search.objective_value("latency") >= (
            oracle.objective_value("latency") - 1e-9
        )
        assert search.evaluation.reliability >= 0.5

    def test_answer_is_a_probed_witness(self, het_instance):
        chain, platform = het_instance
        result = minimize_latency_search(chain, platform)
        assert result.feasible
        details = result.details
        assert details["optimal_latency"] == float(
            result.evaluation.worst_case_latency
        )
        # The analytic floor bounds any witness from below.
        lo = float(np.sum(chain.work)) / float(np.max(platform.speeds))
        assert details["optimal_latency"] >= lo

    def test_honors_period_bound_and_latency_cap(self, het_instance):
        chain, platform = het_instance
        bounded = minimize_latency_search(chain, platform, max_period=20.0)
        assert bounded.feasible
        assert bounded.evaluation.worst_case_period <= 20.0
        # A latency cap below the analytic floor is infeasible.
        lo = float(np.sum(chain.work)) / float(np.max(platform.speeds))
        capped = minimize_latency_search(chain, platform, max_latency=lo / 2)
        assert not capped.feasible
        assert capped.details["probes"] == 1

    def test_reliability_floor_can_defeat_it(self, het_instance):
        chain, platform = het_instance
        floored = minimize_latency_search(
            chain, platform,
            min_log_reliability=from_reliability(1.0 - 1e-15),
        )
        assert not floored.feasible

    def test_exhausted_probe_budget_reports_not_converged(self):
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        platform = Platform(
            speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3,
            max_replication=2,
        )
        starved = minimize_latency_search(chain, platform, max_probes=1)
        assert starved.feasible
        assert starved.details["probes"] == 1
        assert starved.details["converged"] is False
        lo, hi = starved.details["bracket"]
        assert hi - lo > DEFAULT_REL_TOL * max(hi, 1.0)

    def test_default_budget_converges(self):
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        platform = Platform(
            speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3,
            max_replication=2,
        )
        result = minimize_latency_search(chain, platform)
        assert result.details["converged"] is True
        assert result.details["probes"] < DEFAULT_MAX_PROBES
        lo, hi = result.details["bracket"]
        assert hi - lo <= DEFAULT_REL_TOL * max(hi, 1.0)

    def test_validates_arguments(self, het_instance):
        chain, platform = het_instance
        with pytest.raises(ValueError, match="log-probability"):
            minimize_latency_search(chain, platform, min_log_reliability=0.5)
        with pytest.raises(ValueError, match="bounds"):
            minimize_latency_search(chain, platform, max_latency=0.0)
        with pytest.raises(ValueError, match="rel_tol"):
            minimize_latency_search(chain, platform, rel_tol=0.0)


class TestRegistrationAndPlanning:
    def test_registry_metadata(self):
        method = get_method("het-latency-search")
        assert method.objectives == ("latency",)
        assert not method.homogeneous_only
        assert not method.exact
        assert method.solve_batch is not None
        # Pricier than the exact hom DP, so auto keeps dp-latency on
        # homogeneous platforms.
        assert method.cost_hint > get_method("dp-latency").cost_hint

    def test_planner_selects_it_for_het_scenarios(self):
        plan = Planner().plan("high-heterogeneity", objective="latency")
        assert plan.selected == ("het-latency-search",)
        reasons = {s.method: s.reason for s in plan.skipped}
        assert "homogeneous" in reasons["dp-latency"]

    def test_hom_platforms_still_resolve_to_dp(self):
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        platform = Platform.homogeneous_platform(
            3, failure_rate=1e-4, link_failure_rate=1e-5, max_replication=2
        )
        result = solve(Problem(chain, platform, objective="latency"))
        assert result.method == "dp-latency"

    def test_latency_sweep_on_het_scenario(self):
        sweep = run_sweep(
            "high-heterogeneity",
            [get_method("het-latency-search")],
            [(math.inf, math.inf)],
            n_instances=3,
            objective="latency",
        )
        assert int(sweep.counts("het-latency-search")[0]) == 3
        q = sweep.objective_quantiles("het-latency-search")
        assert np.all(np.isfinite(q)) and np.all(q > 0)
