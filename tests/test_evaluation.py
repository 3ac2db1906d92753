"""Unit tests for Section 4 evaluation (Eqs. (1)-(9)) with hand-computed cases."""

import math

import pytest

from repro.core import Interval, Mapping, Platform, TaskChain, evaluate_mapping
from repro.core.evaluation import (
    comm_log_reliability,
    expected_cost,
    interval_log_reliability,
    mapping_log_reliability,
    stage_log_reliability,
    worst_case_cost,
)


@pytest.fixture
def chain():
    return TaskChain(work=[4.0, 6.0], output=[2.0, 0.0])


@pytest.fixture
def platform():
    return Platform(
        speeds=[2.0, 1.0, 4.0],
        failure_rates=[1e-3, 2e-3, 5e-4],
        bandwidth=2.0,
        link_failure_rate=1e-2,
        max_replication=2,
    )


@pytest.fixture
def mapping(chain, platform):
    return Mapping(
        chain,
        platform,
        [(Interval(0, 1), (0, 1)), (Interval(1, 2), (2,))],
    )


class TestBuildingBlocks:
    def test_comm_reliability(self, platform):
        # o = 2, b = 2 -> duration 1, lambda_link = 1e-2.
        assert comm_log_reliability(platform, 2.0) == pytest.approx(-1e-2)
        assert comm_log_reliability(platform, 0.0) == 0.0
        with pytest.raises(ValueError):
            comm_log_reliability(platform, -1.0)

    def test_interval_reliability_eq2(self, chain, platform):
        # Interval [0,2) on proc 0: W = 10, s = 2, lambda = 1e-3.
        ell = interval_log_reliability(chain, platform, 0, 2, 0)
        assert ell == pytest.approx(-1e-3 * 10.0 / 2.0)

    def test_single_task_is_eq1(self, chain, platform):
        ell = interval_log_reliability(chain, platform, 1, 2, 2)
        assert ell == pytest.approx(-5e-4 * 6.0 / 4.0)


class TestStageReliability:
    def test_first_stage_by_hand(self, chain, platform):
        rc_out = math.exp(-1e-2)  # o=2, b=2, lambda_l=1e-2
        b0 = math.exp(-1e-3 * 4 / 2) * rc_out  # proc 0, rcomm_in = 1
        b1 = math.exp(-2e-3 * 4 / 1) * rc_out
        expected = 1 - (1 - b0) * (1 - b1)
        got = stage_log_reliability(chain, platform, 0, 1, (0, 1))
        assert math.exp(got) == pytest.approx(expected, rel=1e-12)

    def test_last_stage_by_hand(self, chain, platform):
        rc_in = math.exp(-1e-2)
        expected = rc_in * math.exp(-5e-4 * 6 / 4)  # rcomm_out = 1 (o_n = 0)
        got = stage_log_reliability(chain, platform, 1, 2, (2,))
        assert math.exp(got) == pytest.approx(expected, rel=1e-12)

    def test_needs_replicas(self, chain, platform):
        with pytest.raises(ValueError):
            stage_log_reliability(chain, platform, 0, 1, ())


class TestEq9:
    def test_product_of_stages(self, chain, platform, mapping):
        expected = stage_log_reliability(
            chain, platform, 0, 1, (0, 1)
        ) + stage_log_reliability(chain, platform, 1, 2, (2,))
        assert mapping_log_reliability(mapping) == pytest.approx(expected, rel=1e-14)

    def test_replication_improves_reliability(self, chain, platform):
        single = Mapping(chain, platform, [(Interval(0, 2), (0,))])
        double = Mapping(chain, platform, [(Interval(0, 2), (0, 1))])
        assert mapping_log_reliability(double) > mapping_log_reliability(single)

    def test_zero_cost_split_preserves_reliability(self):
        # Splitting at a zero-size communication with single replicas
        # multiplies exp(-l w1) * exp(-l w2) = exp(-l (w1+w2)).
        chain = TaskChain([3.0, 5.0], [0.0, 0.0])
        plat = Platform.homogeneous_platform(2, failure_rate=1e-3, max_replication=1)
        whole = Mapping(chain, plat, [(Interval(0, 2), (0,))])
        split = Mapping(
            chain, plat, [(Interval(0, 1), (0,)), (Interval(1, 2), (1,))]
        )
        assert mapping_log_reliability(whole) == pytest.approx(
            mapping_log_reliability(split), rel=1e-14
        )


class TestCosts:
    def test_expected_cost_eq3_by_hand(self, chain, platform):
        # Interval [0,1): W=4, replicas procs {0 (s=2), 1 (s=1)}.
        r0 = math.exp(-1e-3 * 4 / 2)
        r1 = math.exp(-2e-3 * 4 / 1)
        num = r0 / 2 + (1 - r0) * r1 / 1
        den = 1 - (1 - r0) * (1 - r1)
        assert expected_cost(chain, platform, 0, 1, (0, 1)) == pytest.approx(
            4 * num / den, rel=1e-12
        )

    def test_expected_cost_order_invariant(self, chain, platform):
        a = expected_cost(chain, platform, 0, 1, (0, 1))
        b = expected_cost(chain, platform, 0, 1, (1, 0))
        assert a == pytest.approx(b, rel=1e-14)

    def test_expected_cost_single_replica(self, chain, platform):
        # With one replica, ec = W/s regardless of failure rate.
        assert expected_cost(chain, platform, 1, 2, (2,)) == pytest.approx(1.5)

    def test_expected_between_fastest_and_slowest(self, chain, platform):
        ec = expected_cost(chain, platform, 0, 1, (0, 1))
        assert 4 / 2 <= ec <= 4 / 1

    def test_worst_case_eq4(self, chain, platform):
        assert worst_case_cost(chain, platform, 0, 1, (0, 1)) == 4.0
        assert worst_case_cost(chain, platform, 0, 1, (0,)) == 2.0

    def test_reliable_replicas_make_ec_close_to_fastest(self):
        chain = TaskChain([10.0], [0.0])
        plat = Platform([5.0, 1.0], [1e-9, 1e-9], max_replication=2)
        ec = expected_cost(chain, plat, 0, 1, (0, 1))
        assert ec == pytest.approx(2.0, rel=1e-6)  # fastest almost surely wins

    def test_certain_failure_falls_back_to_worst_case(self):
        chain = TaskChain([10.0], [0.0])
        plat = Platform([5.0, 1.0], [1e9, 1e9], max_replication=2)
        # All replicas fail with probability numerically 1.
        assert expected_cost(chain, plat, 0, 1, (0, 1)) == pytest.approx(10.0)

    def test_empty_replicas_rejected(self, chain, platform):
        with pytest.raises(ValueError):
            expected_cost(chain, platform, 0, 1, ())
        with pytest.raises(ValueError):
            worst_case_cost(chain, platform, 0, 1, ())


class TestMappingEvaluation:
    def test_latency_eq5_eq7(self, chain, platform, mapping):
        ev = evaluate_mapping(mapping)
        ec1 = expected_cost(chain, platform, 0, 1, (0, 1))
        # EL = ec1 + o1/b + ec2 + o2/b, with o2 = 0.
        assert ev.expected_latency == pytest.approx(ec1 + 1.0 + 1.5, rel=1e-12)
        assert ev.worst_case_latency == pytest.approx(4.0 + 1.0 + 1.5)

    def test_period_eq6_eq8(self, chain, platform, mapping):
        ev = evaluate_mapping(mapping)
        ec1 = expected_cost(chain, platform, 0, 1, (0, 1))
        assert ev.expected_period == pytest.approx(max(1.0, ec1, 1.5), rel=1e-12)
        assert ev.worst_case_period == pytest.approx(4.0)

    def test_reliability_matches_eq9(self, mapping):
        ev = evaluate_mapping(mapping)
        assert ev.log_reliability == pytest.approx(
            mapping_log_reliability(mapping), rel=1e-14
        )
        assert 0.0 < ev.reliability < 1.0
        assert ev.failure_probability == pytest.approx(1.0 - ev.reliability, rel=1e-9)

    def test_worst_bounds_expected(self, mapping):
        ev = evaluate_mapping(mapping)
        assert ev.worst_case_latency >= ev.expected_latency
        assert ev.worst_case_period >= ev.expected_period

    def test_homogeneous_expected_equals_worst(self):
        chain = TaskChain([3.0, 7.0], [2.0, 0.0])
        plat = Platform.homogeneous_platform(
            4, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=2
        )
        m = Mapping(chain, plat, [(Interval(0, 1), (0, 1)), (Interval(1, 2), (2, 3))])
        ev = evaluate_mapping(m)
        assert ev.expected_latency == pytest.approx(ev.worst_case_latency, rel=1e-6)
        assert ev.expected_period == pytest.approx(ev.worst_case_period, rel=1e-6)

    def test_meets(self, mapping):
        ev = evaluate_mapping(mapping)
        assert ev.meets(max_period=10.0, max_latency=10.0)
        assert not ev.meets(max_period=3.0)
        assert not ev.meets(max_latency=6.0)
        assert not ev.meets(min_log_reliability=0.0)
        assert ev.meets(min_log_reliability=ev.log_reliability)

    def test_per_interval_vectors(self, mapping):
        ev = evaluate_mapping(mapping)
        assert len(ev.expected_costs) == 2
        assert len(ev.worst_case_costs) == 2
        assert ev.worst_case_costs[0] == 4.0
