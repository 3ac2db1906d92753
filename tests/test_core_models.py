"""Unit tests for TaskChain, Platform, Interval, and Mapping."""

import numpy as np
import pytest

from repro.core import Interval, Mapping, Platform, TaskChain
from repro.core.interval import (
    compositions,
    partition_from_cuts,
    partitions_with_m_intervals,
    validate_partition,
)


@pytest.fixture
def chain():
    return TaskChain(work=[4.0, 2.0, 6.0, 8.0], output=[1.0, 3.0, 2.0, 0.0])


@pytest.fixture
def platform():
    return Platform.homogeneous_platform(
        6, speed=2.0, failure_rate=1e-6, bandwidth=4.0,
        link_failure_rate=1e-5, max_replication=3,
    )


class TestTaskChain:
    def test_lengths(self, chain):
        assert chain.n == 4
        assert len(chain) == 4

    def test_total_work(self, chain):
        assert chain.total_work == 20.0

    def test_work_between(self, chain):
        assert chain.work_between(0, 4) == 20.0
        assert chain.work_between(1, 3) == 8.0
        assert chain.work_between(2, 3) == 6.0

    def test_work_between_invalid(self, chain):
        with pytest.raises(ValueError):
            chain.work_between(2, 2)
        with pytest.raises(ValueError):
            chain.work_between(-1, 2)
        with pytest.raises(ValueError):
            chain.work_between(0, 5)

    def test_output_and_input(self, chain):
        assert chain.output_of(2) == 3.0
        assert chain.input_of(0) == 0.0  # the o_0 = 0 convention
        assert chain.input_of(2) == 3.0
        assert chain.output_of(4) == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            TaskChain([1.0, 2.0], [1.0])

    def test_nonpositive_work_rejected(self):
        with pytest.raises(ValueError, match="work"):
            TaskChain([1.0, 0.0], [1.0, 0.0])

    def test_negative_output_rejected(self):
        with pytest.raises(ValueError, match="output"):
            TaskChain([1.0], [-1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TaskChain([float("nan")], [0.0])

    def test_immutability(self, chain):
        with pytest.raises(ValueError):
            chain.work[0] = 99.0

    def test_equality_and_hash(self, chain):
        other = TaskChain(work=[4.0, 2.0, 6.0, 8.0], output=[1.0, 3.0, 2.0, 0.0])
        assert chain == other
        assert hash(chain) == hash(other)
        assert chain != TaskChain([1.0], [0.0])

    def test_repr(self, chain):
        assert "n=4" in repr(chain)


class TestPlatform:
    def test_basic(self, platform):
        assert platform.p == 6
        assert platform.homogeneous
        assert platform.max_replication == 3

    def test_heterogeneous_by_speed(self):
        plat = Platform([1.0, 2.0], [1e-6, 1e-6])
        assert not plat.homogeneous

    def test_heterogeneous_by_rate(self):
        plat = Platform([1.0, 1.0], [1e-6, 1e-7])
        assert not plat.homogeneous

    def test_validation(self):
        with pytest.raises(ValueError, match="speeds"):
            Platform([0.0], [1e-6])
        with pytest.raises(ValueError, match="failure rates"):
            Platform([1.0], [-1e-6])
        with pytest.raises(ValueError, match="bandwidth"):
            Platform([1.0], [1e-6], bandwidth=0.0)
        with pytest.raises(ValueError, match="link_failure_rate"):
            Platform([1.0], [1e-6], link_failure_rate=-1.0)
        with pytest.raises(ValueError, match="max_replication"):
            Platform([1.0], [1e-6], max_replication=0)
        with pytest.raises(ValueError, match="same length"):
            Platform([1.0, 2.0], [1e-6])

    def test_homogeneous_platform_factory(self):
        plat = Platform.homogeneous_platform(3, speed=5.0)
        assert plat.p == 3
        assert np.all(plat.speeds == 5.0)
        with pytest.raises(ValueError):
            Platform.homogeneous_platform(0)

    def test_equality_and_hash(self, platform):
        clone = Platform.homogeneous_platform(
            6, speed=2.0, failure_rate=1e-6, bandwidth=4.0,
            link_failure_rate=1e-5, max_replication=3,
        )
        assert platform == clone
        assert hash(platform) == hash(clone)

    def test_repr_mentions_kind(self, platform):
        assert "homogeneous" in repr(platform)


class TestInterval:
    def test_basic(self):
        iv = Interval(2, 5)
        assert len(iv) == 3
        assert list(iv.tasks) == [2, 3, 4]
        assert 3 in iv and 5 not in iv

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(3, 3)
        with pytest.raises(ValueError):
            Interval(-1, 2)
        with pytest.raises(TypeError):
            Interval(0.0, 2)  # type: ignore[arg-type]

    def test_ordering(self):
        assert Interval(0, 1) < Interval(0, 2) < Interval(1, 2)


class TestPartitions:
    def test_from_cuts(self):
        part = partition_from_cuts(5, [2, 3])
        assert [(iv.start, iv.stop) for iv in part] == [(0, 2), (2, 3), (3, 5)]

    def test_invalid_cut(self):
        with pytest.raises(ValueError):
            partition_from_cuts(5, [0])
        with pytest.raises(ValueError):
            partition_from_cuts(5, [5])

    def test_validate_partition_gaps(self):
        with pytest.raises(ValueError, match="contiguous"):
            validate_partition(5, [Interval(0, 2), Interval(3, 5)])
        with pytest.raises(ValueError, match="start at 0"):
            validate_partition(5, [Interval(1, 5)])
        with pytest.raises(ValueError, match="stop at 5"):
            validate_partition(5, [Interval(0, 4)])
        with pytest.raises(ValueError, match="at least one"):
            validate_partition(5, [])

    def test_compositions_count(self):
        # C(n-1, m-1) compositions of n into m parts.
        from math import comb

        for n in range(1, 7):
            for m in range(1, n + 1):
                got = list(compositions(n, m))
                assert len(got) == comb(n - 1, m - 1)
                for part in got:
                    validate_partition(n, part)
                    assert len(part) == m

    def test_all_partitions_count(self):
        assert sum(1 for _ in partitions_with_m_intervals(5)) == 2 ** 4
        assert sum(1 for _ in partitions_with_m_intervals(5, max_m=2)) == 1 + 4


class TestMapping:
    def test_valid_mapping(self, chain, platform):
        m = Mapping(
            chain,
            platform,
            [(Interval(0, 2), (0, 1)), (Interval(2, 4), (2,))],
        )
        assert m.m == 2
        assert m.processors_used == 3
        assert m.replication_level == 1.5
        assert m.interval_work(0) == 6.0
        assert m.interval_output(0) == 3.0
        assert m.interval_input(0) == 0.0
        assert m.interval_input(1) == 3.0

    def test_rejects_processor_reuse(self, chain, platform):
        with pytest.raises(ValueError, match="more than one interval"):
            Mapping(
                chain,
                platform,
                [(Interval(0, 2), (0,)), (Interval(2, 4), (0,))],
            )

    def test_rejects_duplicate_within_interval(self, chain, platform):
        with pytest.raises(ValueError, match="twice"):
            Mapping(chain, platform, [(Interval(0, 4), (1, 1))])

    def test_rejects_empty_replicas(self, chain, platform):
        with pytest.raises(ValueError, match="no replica"):
            Mapping(chain, platform, [(Interval(0, 4), ())])

    def test_rejects_too_many_replicas(self, chain, platform):
        with pytest.raises(ValueError, match="exceeding K"):
            Mapping(chain, platform, [(Interval(0, 4), (0, 1, 2, 3))])

    def test_rejects_bad_processor_index(self, chain, platform):
        with pytest.raises(ValueError, match="out of range"):
            Mapping(chain, platform, [(Interval(0, 4), (99,))])

    def test_rejects_non_partition(self, chain, platform):
        with pytest.raises(ValueError):
            Mapping(chain, platform, [(Interval(0, 3), (0,))])

    def test_iteration_order(self, chain, platform):
        m = Mapping(
            chain,
            platform,
            [(Interval(0, 1), (5,)), (Interval(1, 4), (0, 2))],
        )
        pairs = list(m)
        assert pairs[0][0] == Interval(0, 1)
        assert pairs[1][1] == (0, 2)

    def test_equality(self, chain, platform):
        a = Mapping(chain, platform, [(Interval(0, 4), (0,))])
        b = Mapping(chain, platform, [(Interval(0, 4), (0,))])
        assert a == b and hash(a) == hash(b)
