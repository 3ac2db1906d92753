"""Tests for Heur-L (Algorithm 3), Heur-P (Algorithm 4), and the full
two-step heuristic pipeline of Section 7."""


import numpy as np
import pytest

from repro.algorithms import (
    heur_l_intervals,
    heur_p_intervals,
    heuristic_best,
    heuristic_candidates,
)
from repro.core import Platform, TaskChain, random_chain, random_platform
from repro.core.interval import compositions, validate_partition


def hom_platform(p, K):
    return Platform.homogeneous_platform(
        p, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=K
    )


class TestHeurL:
    def test_cuts_at_smallest_comms(self):
        chain = TaskChain([1, 1, 1, 1, 1], [9.0, 1.0, 5.0, 2.0, 0.0])
        part = heur_l_intervals(chain, 3)
        # Smallest comm costs among tasks 1..4 are o=1 (task idx 1) and
        # o=2 (task idx 3): cuts after them.
        assert [iv.stop for iv in part] == [2, 4, 5]

    def test_single_interval(self):
        chain = random_chain(6, rng=0)
        part = heur_l_intervals(chain, 1)
        assert len(part) == 1 and part[0].stop == 6

    def test_max_intervals(self):
        chain = random_chain(6, rng=0)
        part = heur_l_intervals(chain, 6)
        assert len(part) == 6

    def test_tie_broken_by_position(self):
        chain = TaskChain([1, 1, 1, 1], [3.0, 3.0, 3.0, 0.0])
        part = heur_l_intervals(chain, 2)
        assert [iv.stop for iv in part] == [1, 4]  # first tie wins

    def test_invalid_m(self):
        chain = random_chain(4, rng=0)
        with pytest.raises(ValueError):
            heur_l_intervals(chain, 0)
        with pytest.raises(ValueError):
            heur_l_intervals(chain, 5)

    @pytest.mark.parametrize("seed", range(6))
    def test_minimizes_comm_sum_over_divisions(self, seed):
        """Among all m-interval divisions, Heur-L's has the smallest
        total cut-communication cost (= smallest latency on hom)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        chain = random_chain(n, rng)
        m = int(rng.integers(2, n + 1))
        part = heur_l_intervals(chain, m)
        cost = sum(chain.output_of(iv.stop) for iv in part[:-1])
        best = min(
            sum(chain.output_of(iv.stop) for iv in cand[:-1])
            for cand in compositions(n, m)
        )
        assert cost == pytest.approx(best)


class TestHeurP:
    def test_balances_work(self):
        chain = TaskChain([4, 4, 4, 4], [1.0, 1.0, 1.0, 0.0])
        part = heur_p_intervals(chain, 2)
        assert [iv.stop for iv in part] == [2, 4]

    def test_avoids_expensive_cut(self):
        # Cutting after task 0 exposes the o = 10 communication (period
        # 10); cutting after task 1 exposes only o = 1 (period 4, from
        # the [0,2) interval's work).  The DP must pick the latter.
        chain = TaskChain([2, 2, 2], [10.0, 1.0, 0.0])
        part = heur_p_intervals(chain, 2)
        assert [iv.stop for iv in part] == [2, 3]
        period = max(
            max(chain.work_between(iv.start, iv.stop), chain.output_of(iv.stop))
            for iv in part
        )
        assert period == pytest.approx(4.0)

    def test_invalid_args(self):
        chain = random_chain(4, rng=0)
        with pytest.raises(ValueError):
            heur_p_intervals(chain, 0)
        with pytest.raises(ValueError):
            heur_p_intervals(chain, 1, reference_speed=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_optimal_period_among_divisions(self, seed):
        """Heur-P's m-interval division achieves the optimal m-interval
        period (its DP is exact for the division step)."""
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(3, 8))
        chain = random_chain(n, rng)
        m = int(rng.integers(1, n + 1))
        part = heur_p_intervals(chain, m)
        validate_partition(n, part)
        assert len(part) == m

        def period_of(cand):
            return max(
                max(chain.work_between(iv.start, iv.stop), chain.output_of(iv.stop))
                for iv in cand
            )

        best = min(period_of(c) for c in compositions(n, m))
        assert period_of(part) == pytest.approx(best)

    def test_respects_reference_speed_and_bandwidth(self):
        chain = TaskChain([8, 8], [4.0, 0.0])
        # With b = 0.5 the comm time is 8, matching one interval's work
        # at speed 1; with default b = 1 it is 4.
        part_slow_link = heur_p_intervals(chain, 2, bandwidth=0.5)
        validate_partition(2, part_slow_link)


class TestHeuristicPipeline:
    def test_candidates_one_per_interval_count(self):
        chain = random_chain(6, rng=2)
        plat = hom_platform(4, 2)
        cands = heuristic_candidates(chain, plat, "heur-p")
        assert [c.m for c in cands] == [1, 2, 3, 4]  # min(n, p) = 4

    def test_infeasible_candidates_flagged(self):
        chain = TaskChain([10.0, 10.0], [1.0, 0.0])
        plat = hom_platform(3, 2)
        cands = heuristic_candidates(chain, plat, "heur-p", max_period=5.0)
        assert all(not c.feasible for c in cands)

    def test_unknown_heuristic(self):
        chain = random_chain(3, rng=0)
        with pytest.raises(ValueError):
            heuristic_candidates(chain, hom_platform(2, 1), "heur-x")

    def test_best_picks_highest_reliability(self):
        chain = random_chain(8, rng=4)
        plat = hom_platform(6, 3)
        res = heuristic_best(chain, plat, max_period=500.0, max_latency=1500.0)
        assert res.feasible
        # It must beat or match each individual feasible candidate.
        for name in ("heur-l", "heur-p"):
            for cand in heuristic_candidates(
                chain, plat, name, max_period=500.0, max_latency=1500.0
            ):
                if cand.feasible:
                    assert res.log_reliability >= cand.evaluation.log_reliability - 1e-18

    def test_best_respects_bounds(self):
        chain = random_chain(8, rng=5)
        plat = hom_platform(6, 3)
        res = heuristic_best(chain, plat, max_period=200.0, max_latency=800.0)
        if res.feasible:
            assert res.evaluation.worst_case_period <= 200.0 + 1e-9
            assert res.evaluation.worst_case_latency <= 800.0 + 1e-9

    def test_infeasible_reported(self):
        chain = TaskChain([100.0], [0.0])
        plat = hom_platform(2, 2)
        res = heuristic_best(chain, plat, max_period=1.0)
        assert not res.feasible
        assert res.mapping is None

    def test_single_heuristic_selection(self):
        chain = random_chain(6, rng=6)
        plat = hom_platform(4, 2)
        res_l = heuristic_best(chain, plat, which="heur-l")
        res_p = heuristic_best(chain, plat, which="heur-p")
        both = heuristic_best(chain, plat, which="both")
        assert both.log_reliability >= max(res_l.log_reliability, res_p.log_reliability) - 1e-18

    def test_heterogeneous_pipeline_runs(self):
        rng = np.random.default_rng(8)
        chain = random_chain(10, rng)
        plat = random_platform(6, rng)
        res = heuristic_best(chain, plat, max_period=50.0, max_latency=200.0)
        if res.feasible:
            ev = res.evaluation
            assert ev.worst_case_period <= 50.0 + 1e-9
            assert ev.worst_case_latency <= 200.0 + 1e-9

    def test_het_allocation_failure_handled(self):
        # Slow single processor cannot host anything within the period.
        chain = TaskChain([100.0, 100.0], [1.0, 0.0])
        plat = Platform([1.0, 1.0], [1e-8, 1e-8], max_replication=1)
        res = heuristic_best(chain, plat, max_period=10.0)
        assert not res.feasible
