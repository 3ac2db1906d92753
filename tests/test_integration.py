"""Cross-module integration tests: the full validation chain (README,
"Tests") exercised end to end on shared instances."""


import numpy as np
import pytest

from repro import (
    Platform,
    evaluate_mapping,
    heuristic_best,
    ilp_best,
    optimize_reliability,
    pareto_dp_best,
    random_chain,
    random_platform,
)
from repro.core.evaluation import mapping_log_reliability
from repro.extensions import compare_routing, mapping_energy
from repro.rbd import (
    estimate_log_reliability,
    exact_log_reliability_factoring,
    rbd_with_routing,
    series_parallel_log_reliability,
)
from repro.simulation import simulate_mapping


@pytest.fixture(scope="module")
def paper_scale_instance():
    chain = random_chain(15, rng=123)
    platform = Platform.homogeneous_platform(
        10, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=3
    )
    return chain, platform


class TestSolverPipelineOnPaperScale:
    def test_exact_methods_agree_at_n15(self, paper_scale_instance):
        chain, platform = paper_scale_instance
        P, L = 250.0, 900.0
        ilp = ilp_best(chain, platform, max_period=P, max_latency=L)
        dp = pareto_dp_best(chain, platform, max_period=P, max_latency=L)
        assert ilp.feasible == dp.feasible
        if ilp.feasible:
            assert ilp.log_reliability == pytest.approx(
                dp.log_reliability, rel=1e-6
            )

    def test_heuristic_within_exact(self, paper_scale_instance):
        chain, platform = paper_scale_instance
        P, L = 250.0, 900.0
        exact = pareto_dp_best(chain, platform, max_period=P, max_latency=L)
        heur = heuristic_best(chain, platform, max_period=P, max_latency=L)
        assert (not heur.feasible) or exact.feasible
        if heur.feasible:
            assert exact.log_reliability >= heur.log_reliability - 1e-15
            ev = heur.evaluation
            assert ev.worst_case_period <= P + 1e-9
            assert ev.worst_case_latency <= L + 1e-9

    def test_algorithm1_upper_bounds_everything(self, paper_scale_instance):
        chain, platform = paper_scale_instance
        unconstrained = optimize_reliability(chain, platform)
        constrained = pareto_dp_best(
            chain, platform, max_period=250.0, max_latency=900.0
        )
        if constrained.feasible:
            assert unconstrained.log_reliability >= constrained.log_reliability - 1e-15


class TestRBDChainOnSolvedMappings:
    """Take a mapping produced by a *solver* and push it through every
    RBD evaluator — the representations must tell one story."""

    @pytest.fixture(scope="class")
    def solved_mapping(self):
        chain = random_chain(5, rng=77)
        platform = Platform.homogeneous_platform(
            6, failure_rate=1e-3, link_failure_rate=1e-3, max_replication=2
        )
        return optimize_reliability(chain, platform).mapping

    def test_eq9_vs_routed_rbd(self, solved_mapping):
        want = mapping_log_reliability(solved_mapping)
        rbd = rbd_with_routing(solved_mapping)
        assert series_parallel_log_reliability(rbd) == pytest.approx(want, rel=1e-10)
        assert exact_log_reliability_factoring(rbd) == pytest.approx(want, rel=1e-10)

    def test_monte_carlo_consistent(self, solved_mapping):
        rbd = rbd_with_routing(solved_mapping)
        want = mapping_log_reliability(solved_mapping)
        est = estimate_log_reliability(rbd, trials=30_000, rng=5)
        assert est.consistent_with(want)

    def test_routing_comparison_on_solver_output(self, solved_mapping):
        cmp = compare_routing(solved_mapping)
        assert cmp.routing_penalty >= 1.0
        assert cmp.n_minimal_cuts >= solved_mapping.m

    def test_simulator_agrees_with_eq9(self, solved_mapping):
        summary = simulate_mapping(solved_mapping, n_datasets=3000, rng=3)
        assert summary.reliability_consistent


class TestHeterogeneousEndToEnd:
    def test_full_het_flow(self):
        rng = np.random.default_rng(2024)
        chain = random_chain(10, rng)
        platform = random_platform(8, rng)
        res = heuristic_best(chain, platform, max_period=60.0, max_latency=250.0)
        if not res.feasible:
            pytest.skip("random instance infeasible at these bounds")
        mapping = res.mapping
        ev = res.evaluation
        # Evaluation consistent with a fresh one.
        again = evaluate_mapping(mapping)
        assert again.log_reliability == pytest.approx(ev.log_reliability, rel=1e-12)
        # Energy metric is positive and grows with replication level.
        energy = mapping_energy(mapping)
        assert energy > 0
        # The routed RBD agrees with Eq. (9) on het platforms too.
        rbd = rbd_with_routing(mapping)
        assert series_parallel_log_reliability(rbd) == pytest.approx(
            ev.log_reliability, rel=1e-9
        )

    def test_het_simulation_matches_analytics(self):
        rng = np.random.default_rng(99)
        chain = random_chain(6, rng, work_range=(5, 20), output_range=(1, 4))
        platform = Platform(
            speeds=rng.uniform(1, 5, 6),
            failure_rates=[5e-3] * 6,
            bandwidth=1.0,
            link_failure_rate=1e-3,
            max_replication=2,
        )
        res = heuristic_best(chain, platform, max_period=40.0, max_latency=100.0)
        if not res.feasible:
            pytest.skip("random instance infeasible at these bounds")
        summary = simulate_mapping(res.mapping, n_datasets=4000, rng=8)
        assert summary.reliability_consistent


class TestDeterminism:
    """Everything downstream of a seed must be bit-for-bit reproducible."""

    def test_solvers_are_deterministic(self):
        chain = random_chain(8, rng=5)
        platform = Platform.homogeneous_platform(
            6, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=3
        )
        a = pareto_dp_best(chain, platform, max_period=200.0, max_latency=700.0)
        b = pareto_dp_best(chain, platform, max_period=200.0, max_latency=700.0)
        assert a.mapping == b.mapping

    def test_simulation_deterministic_given_seed(self):
        chain = random_chain(4, rng=6, work_range=(5, 15))
        platform = Platform.homogeneous_platform(
            4, failure_rate=1e-2, link_failure_rate=1e-3, max_replication=2
        )
        mapping = optimize_reliability(chain, platform).mapping
        a = simulate_mapping(mapping, n_datasets=500, rng=42)
        b = simulate_mapping(mapping, n_datasets=500, rng=42)
        assert np.array_equal(
            a.run.completion_times, b.run.completion_times, equal_nan=True
        )

    def test_experiment_suites_deterministic(self):
        from repro.experiments import run_experiment, run_figure

        fa, fb = (
            run_figure("fig10", experiment_result=run_experiment(
                "hom-linked", n_instances=3, grid="reduced", seed=1,
                exact_method="pareto-dp",
            ))
            for _ in range(2)
        )
        for key in fa.series:
            assert np.array_equal(fa.series[key], fb.series[key])
