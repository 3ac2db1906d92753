"""Tests for the Section 9 future-work extensions."""


import numpy as np
import pytest

from repro.core import Interval, Mapping, Platform, TaskChain, random_chain
from repro.core.evaluation import mapping_log_reliability
from repro.core.interval import partition_from_cuts
from repro.extensions import (
    compare_routing,
    energy_aware_alloc_het,
    mapping_energy,
)
from repro.algorithms.allocation import algo_alloc_het
from repro.util import logrel


def mesh_mapping(link_rate=1e-3, proc_rate=1e-2, K=2):
    chain = TaskChain([4.0, 6.0, 3.0], [2.0, 4.0, 0.0])
    plat = Platform(
        [1.0, 2.0, 1.5, 1.0, 2.5, 2.0],
        [proc_rate] * 6,
        bandwidth=1.0,
        link_failure_rate=link_rate,
        max_replication=K,
    )
    return Mapping(
        plat_chain := chain,
        plat,
        [
            (Interval(0, 1), (0, 1)),
            (Interval(1, 2), (2, 3)),
            (Interval(2, 3), (4, 5)),
        ],
    )


class TestRoutingComparison:
    def test_orderings_hold(self):
        cmp = compare_routing(mesh_mapping())
        assert cmp.routed_log_reliability <= cmp.unrouted_exact_log_reliability + 1e-12
        assert (
            cmp.unrouted_cutset_log_reliability
            <= cmp.unrouted_exact_log_reliability + 1e-12
        )

    def test_penalty_at_least_one(self):
        cmp = compare_routing(mesh_mapping(link_rate=1e-2))
        assert cmp.routing_penalty >= 1.0
        assert cmp.cutset_gap >= 1.0

    def test_single_replica_double_hop_only(self):
        """Without replication both RBDs are serial chains, but the
        routed data still hops twice per boundary ("ol1 is transmitted
        twice before reaching I2", Section 4): the gap is exactly one
        extra communication factor per interior boundary."""
        chain = TaskChain([4.0, 6.0], [2.0, 0.0])
        plat = Platform([1.0, 2.0], [1e-2] * 2, link_failure_rate=1e-2,
                        max_replication=1)
        m = Mapping(chain, plat, [(Interval(0, 1), (0,)), (Interval(1, 2), (1,))])
        cmp = compare_routing(m)
        one_hop = -1e-2 * 2.0 / 1.0  # log rcomm of the o=2 boundary
        assert cmp.routed_log_reliability == pytest.approx(
            cmp.unrouted_exact_log_reliability + one_hop, rel=1e-9
        )

    def test_perfect_links_modest_penalty(self):
        """With perfect links the unrouted mesh only reorders comm
        blocks; penalty must be small (pure replica-pairing effect)."""
        cmp = compare_routing(mesh_mapping(link_rate=0.0))
        assert 1.0 <= cmp.routing_penalty < 1.5

    def test_timing_fields_populated(self):
        cmp = compare_routing(mesh_mapping())
        assert cmp.routed_seconds >= 0
        assert cmp.unrouted_exact_seconds >= 0
        assert cmp.n_minimal_cuts > 0

    def test_paper_regime_penalty(self):
        """At the paper's rates, the routed and exact values agree to
        many digits in reliability but differ measurably in failure
        probability — the quantity the figures plot."""
        cmp = compare_routing(mesh_mapping(link_rate=1e-5, proc_rate=1e-8))
        assert cmp.routing_penalty > 1.0
        f_routed = logrel.failure(cmp.routed_log_reliability)
        assert f_routed < 1e-3


class TestEnergyMetric:
    def test_energy_by_hand(self):
        chain = TaskChain([4.0, 6.0], [2.0, 0.0])
        plat = Platform([2.0, 1.0, 3.0], [1e-8] * 3, bandwidth=2.0,
                        max_replication=2)
        m = Mapping(chain, plat, [(Interval(0, 1), (0, 1)), (Interval(1, 2), (2,))])
        # alpha=3: E = 4*2^2 + 4*1^2 + 6*3^2 + comm 2/2 * 1.0 * 2 replicas.
        want = 16 + 4 + 54 + 2.0
        assert mapping_energy(m) == pytest.approx(want)

    def test_alpha_one_is_pure_work(self):
        chain = TaskChain([4.0, 6.0], [0.0, 0.0])
        plat = Platform([2.0, 5.0], [1e-8] * 2, max_replication=1)
        m = Mapping(chain, plat, [(Interval(0, 1), (0,)), (Interval(1, 2), (1,))])
        assert mapping_energy(m, alpha=1.0) == pytest.approx(10.0)

    def test_replication_costs_energy(self):
        chain = TaskChain([4.0], [0.0])
        plat = Platform([2.0, 2.0], [1e-8] * 2, max_replication=2)
        single = Mapping(chain, plat, [(Interval(0, 1), (0,))])
        double = Mapping(chain, plat, [(Interval(0, 1), (0, 1))])
        assert mapping_energy(double) == pytest.approx(2 * mapping_energy(single))

    def test_invalid_alpha(self):
        m = mesh_mapping()
        with pytest.raises(ValueError):
            mapping_energy(m, alpha=0.5)


class TestEnergyAwareAllocation:
    @pytest.fixture
    def instance(self):
        chain = random_chain(6, rng=5)
        plat = Platform(
            np.linspace(2.0, 60.0, 8),
            [1e-8] * 8,
            link_failure_rate=1e-5,
            max_replication=3,
        )
        partition = partition_from_cuts(6, [3])
        return chain, plat, partition

    def test_unlimited_budget_matches_het_alloc_reliability(self, instance):
        chain, plat, partition = instance
        base = algo_alloc_het(chain, plat, partition)
        energy = energy_aware_alloc_het(chain, plat, partition)
        assert base is not None and energy is not None
        # Same seeds; phase-2 order may differ (per-energy scores), but
        # with an infinite budget every qualifying processor is placed.
        assert energy.processors_used == base.processors_used

    def test_budget_limits_replication(self, instance):
        # alpha = 1 makes every replica of interval j cost W_j, so the
        # seeds cost ~W_total while the full allocation costs ~3x that:
        # a 60% budget admits the seeds but not all replicas.
        chain, plat, partition = instance
        unlimited = energy_aware_alloc_het(chain, plat, partition, alpha=1.0)
        assert unlimited is not None
        full_energy = mapping_energy(unlimited, alpha=1.0)
        budget = full_energy * 0.6
        tight = energy_aware_alloc_het(
            chain, plat, partition, max_energy=budget, alpha=1.0
        )
        assert tight is not None
        assert mapping_energy(tight, alpha=1.0) <= budget
        assert tight.processors_used < unlimited.processors_used

    @pytest.mark.filterwarnings("error")
    def test_certainly_failing_stage_scores_without_warning(self):
        """At failure rate 1e3 every stage is certain to fail, so each
        phase-2 gain is ``-inf - -inf``: NaN, never the best, and no
        NumPy invalid-value warning (errors under this filter)."""
        chain = TaskChain([5.0, 7.0, 3.0], [1.0, 2.0, 0.0])
        plat = Platform.homogeneous_platform(4, failure_rate=1e3, max_replication=3)
        partition = [Interval(0, 2), Interval(2, 3)]
        base = algo_alloc_het(chain, plat, partition)
        energy = energy_aware_alloc_het(chain, plat, partition)
        assert base is not None and energy is not None
        # No gain beats 0, so both keep phase 1's seeds alone.
        assert [procs for _, procs in energy] == [procs for _, procs in base]
        assert energy.processors_used == 2

    def test_budget_below_seed_cost_infeasible(self, instance):
        chain, plat, partition = instance
        assert (
            energy_aware_alloc_het(chain, plat, partition, max_energy=1e-6) is None
        )

    def test_reliability_energy_tradeoff_curve(self, instance):
        """Looser budgets can only improve reliability (monotone trade)."""
        chain, plat, partition = instance
        unlimited = energy_aware_alloc_het(chain, plat, partition, alpha=1.0)
        full = mapping_energy(unlimited, alpha=1.0)
        rels = []
        for frac in (0.5, 0.7, 0.9, 1.0):
            m = energy_aware_alloc_het(
                chain, plat, partition, max_energy=full * frac, alpha=1.0
            )
            assert m is not None, frac
            rels.append(mapping_log_reliability(m))
        assert all(b >= a - 1e-15 for a, b in zip(rels, rels[1:]))

    def test_respects_period_bound(self, instance):
        chain, plat, partition = instance
        m = energy_aware_alloc_het(chain, plat, partition, max_period=5.0)
        if m is not None:
            from repro.core import evaluate_mapping

            assert max(evaluate_mapping(m).worst_case_costs) <= 5.0 + 1e-9
