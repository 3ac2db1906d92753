"""Tests for Algorithms 1 and 2 and the binary-search period optimizer,
validated against brute-force enumeration (Theorems 1 and 2)."""

import math

import numpy as np
import pytest

from repro.algorithms import (
    brute_force_best,
    minimize_period,
    optimize_reliability,
    optimize_reliability_period,
)
from repro.algorithms.dp_period import candidate_periods
from repro.core import Platform, TaskChain, random_chain

HOM = dict(speed=1.0, failure_rate=1e-8, link_failure_rate=1e-5, bandwidth=1.0)


def hom_platform(p, K, **overrides):
    args = {**HOM, **overrides}
    return Platform.homogeneous_platform(p, max_replication=K, **args)


class TestAlgorithm1:
    def test_single_task_single_proc(self):
        chain = TaskChain([5.0], [0.0])
        plat = hom_platform(1, 1)
        res = optimize_reliability(chain, plat)
        assert res.feasible
        assert res.mapping.m == 1
        assert res.log_reliability == pytest.approx(-1e-8 * 5.0)

    def test_replicates_up_to_k(self):
        chain = TaskChain([5.0], [0.0])
        plat = hom_platform(5, 3)
        res = optimize_reliability(chain, plat)
        assert res.mapping.replicas[0] == (0, 1, 2)  # K = 3 < p

    def test_dp_value_matches_evaluation(self):
        chain = random_chain(6, rng=1)
        plat = hom_platform(4, 2)
        res = optimize_reliability(chain, plat)
        assert res.details["dp_log_reliability"] == pytest.approx(
            res.log_reliability, rel=1e-12
        )

    def test_rejects_heterogeneous(self):
        chain = TaskChain([1.0], [0.0])
        plat = Platform([1.0, 2.0], [1e-8, 1e-8])
        with pytest.raises(ValueError, match="homogeneous"):
            optimize_reliability(chain, plat)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))
        chain = random_chain(n, rng)
        plat = hom_platform(p, K)
        dp = optimize_reliability(chain, plat)
        bf = brute_force_best(chain, plat)
        assert dp.log_reliability == pytest.approx(bf.log_reliability, rel=1e-9)

    def test_more_processors_never_hurt(self):
        chain = random_chain(5, rng=7)
        vals = []
        for p in range(1, 7):
            res = optimize_reliability(chain, hom_platform(p, 3))
            vals.append(res.log_reliability)
        assert all(b >= a - 1e-30 for a, b in zip(vals, vals[1:]))


class TestAlgorithm2:
    def test_period_bound_enforced(self):
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        plat = hom_platform(4, 2)
        res = optimize_reliability_period(chain, plat, max_period=8.0)
        assert res.feasible
        assert res.evaluation.worst_case_period <= 8.0
        assert res.mapping.m == 2

    def test_infeasible_when_task_too_big(self):
        chain = TaskChain([10.0], [0.0])
        plat = hom_platform(2, 2)
        res = optimize_reliability_period(chain, plat, max_period=5.0)
        assert not res.feasible

    def test_infeasible_when_comm_too_big(self):
        chain = TaskChain([1.0, 1.0], [50.0, 0.0])
        plat = hom_platform(2, 1)
        # Both intervals together (no comm) fit compute-wise with one
        # interval of work 2 <= 5; splitting would need comm 50 > 5.
        res = optimize_reliability_period(chain, plat, max_period=5.0)
        assert res.feasible
        assert res.mapping.m == 1

    def test_unbounded_reduces_to_algorithm1(self):
        chain = random_chain(7, rng=3)
        plat = hom_platform(5, 3)
        a1 = optimize_reliability(chain, plat)
        a2 = optimize_reliability_period(chain, plat, max_period=math.inf)
        assert a1.log_reliability == pytest.approx(a2.log_reliability, rel=1e-12)

    def test_invalid_bound(self):
        chain = TaskChain([1.0], [0.0])
        with pytest.raises(ValueError):
            optimize_reliability_period(chain, hom_platform(1, 1), max_period=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))
        chain = random_chain(n, rng)
        plat = hom_platform(p, K)
        P = float(rng.uniform(20, 300))
        dp = optimize_reliability_period(chain, plat, max_period=P)
        bf = brute_force_best(chain, plat, max_period=P)
        assert dp.feasible == bf.feasible
        if dp.feasible:
            assert dp.log_reliability == pytest.approx(bf.log_reliability, rel=1e-9)

    def test_monotone_in_period_bound(self):
        chain = random_chain(6, rng=11)
        plat = hom_platform(5, 2)
        vals = []
        for P in (50.0, 100.0, 200.0, 400.0, 800.0):
            res = optimize_reliability_period(chain, plat, max_period=P)
            vals.append(res.log_reliability if res.feasible else -math.inf)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestPeriodMinimization:
    def test_candidate_periods_cover_optimum(self):
        chain = TaskChain([4.0, 2.0], [3.0, 0.0])
        plat = hom_platform(2, 1)
        cands = candidate_periods(chain, plat)
        # Work values: 4, 2, 6; comm values: 3 (the o_n = 0 is dropped).
        assert set(np.round(cands, 9)) == {2.0, 3.0, 4.0, 6.0}

    def test_minimal_period_for_reliability(self):
        chain = TaskChain([4.0, 2.0], [3.0, 0.0])
        plat = hom_platform(4, 2)
        # Very weak requirement: any mapping qualifies; best period is 4
        # (split at cut with comm 3: stages 4 and 2, comm 3 -> period 4).
        res = minimize_period(chain, plat, min_log_reliability=-1.0)
        assert res.feasible
        assert res.details["optimal_period"] == pytest.approx(4.0)

    def test_tight_reliability_forces_larger_period(self):
        chain = TaskChain([4.0, 2.0], [3.0, 0.0])
        plat = hom_platform(2, 2)
        # With p=2, K=2: max reliability needs both replicas on a single
        # interval (avoiding the unreliable comm), so period = 6.
        best = optimize_reliability(chain, plat)
        res = minimize_period(
            chain, plat, min_log_reliability=best.log_reliability
        )
        assert res.feasible
        assert res.details["optimal_period"] == pytest.approx(6.0)

    def test_infeasible_reliability(self):
        chain = TaskChain([4.0], [0.0])
        plat = hom_platform(1, 1)
        res = minimize_period(chain, plat, min_log_reliability=-1e-12)
        assert not res.feasible

    def test_result_meets_bound(self):
        chain = random_chain(6, rng=5)
        plat = hom_platform(5, 3)
        target = optimize_reliability(chain, plat).log_reliability * 10
        res = minimize_period(chain, plat, min_log_reliability=target)
        assert res.feasible
        assert res.log_reliability >= target
        assert res.evaluation.worst_case_period == pytest.approx(
            res.details["optimal_period"]
        )

    def test_optimality_against_sweep(self):
        # The returned period must be the smallest candidate achieving
        # the reliability bound.
        chain = random_chain(5, rng=9)
        plat = hom_platform(4, 2)
        target = optimize_reliability(chain, plat).log_reliability * 5
        res = minimize_period(chain, plat, min_log_reliability=target)
        assert res.feasible
        P_star = res.details["optimal_period"]
        for P in candidate_periods(chain, plat):
            if P >= P_star:
                break
            probe = optimize_reliability_period(chain, plat, max_period=float(P))
            assert (not probe.feasible) or probe.log_reliability < target

    def test_rejects_bad_target(self):
        chain = TaskChain([1.0], [0.0])
        with pytest.raises(ValueError):
            minimize_period(chain, hom_platform(1, 1), 0.5)
