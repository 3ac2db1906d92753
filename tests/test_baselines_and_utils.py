"""Tests for the Section 1 baseline mappings and small utility modules."""

import math

import numpy as np
import pytest

from repro.algorithms import (
    one_to_one_best,
    pareto_dp_best,
    single_interval_best,
)
from repro.algorithms.result import SolveResult
from repro.core import Platform, TaskChain, random_chain
from repro.util.rng import ensure_rng, spawn
from repro.util.validation import (
    as_float_array,
    check_nonnegative,
    check_positive,
)


def hom_platform(p, K=3):
    return Platform.homogeneous_platform(
        p, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=K
    )


class TestOneToOne:
    def test_requires_enough_processors(self):
        chain = random_chain(5, rng=0)
        res = one_to_one_best(chain, hom_platform(3))
        assert not res.feasible
        assert "processors" in res.details.get("reason", "")

    def test_each_task_is_an_interval(self):
        chain = random_chain(4, rng=1)
        res = one_to_one_best(chain, hom_platform(8))
        assert res.feasible
        assert res.mapping.m == 4
        assert all(len(iv) == 1 for iv in res.mapping.intervals)

    def test_interval_mapping_dominates(self):
        chain = random_chain(5, rng=2)
        plat = hom_platform(8)
        interval = pareto_dp_best(chain, plat)
        o2o = one_to_one_best(chain, plat)
        assert interval.log_reliability >= o2o.log_reliability - 1e-15

    def test_bound_check(self):
        chain = TaskChain([10.0, 10.0], [50.0, 0.0])
        res = one_to_one_best(chain, hom_platform(4), max_latency=30.0)
        assert not res.feasible  # the o=50 comm is forced and blows L


class TestSingleInterval:
    def test_one_interval(self):
        chain = random_chain(6, rng=3)
        res = single_interval_best(chain, hom_platform(4))
        assert res.feasible
        assert res.mapping.m == 1

    def test_cannot_pipeline(self):
        # A period below the total work is unreachable with one interval.
        chain = TaskChain([10.0, 10.0], [1.0, 0.0])
        res = single_interval_best(chain, hom_platform(4), max_period=15.0)
        assert not res.feasible

    def test_het_platform_allocation(self):
        chain = random_chain(4, rng=4)
        plat = Platform([5.0, 1.0, 3.0], [1e-8] * 3, max_replication=2)
        res = single_interval_best(chain, plat)
        assert res.feasible
        assert len(res.mapping.replicas[0]) == 2


class TestSolveResult:
    def test_feasible_requires_payload(self):
        with pytest.raises(ValueError, match="must carry"):
            SolveResult(feasible=True)

    def test_infeasible_rejects_mapping(self):
        chain = TaskChain([1.0], [0.0])
        plat = hom_platform(1, 1)
        res = pareto_dp_best(chain, plat)
        with pytest.raises(ValueError, match="must not carry"):
            SolveResult(feasible=False, mapping=res.mapping)

    def test_infeasible_defaults(self):
        res = SolveResult.infeasible("test-method", why="because")
        assert res.log_reliability == -math.inf
        assert res.failure_probability == 1.0
        assert res.details["why"] == "because"


class TestRngUtils:
    def test_ensure_rng_idempotent(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_seeds(self):
        a = ensure_rng(42).random()
        b = ensure_rng(42).random()
        assert a == b

    def test_spawn_independent_and_reproducible(self):
        kids1 = spawn(ensure_rng(7), 3)
        kids2 = spawn(ensure_rng(7), 3)
        vals1 = [k.random() for k in kids1]
        vals2 = [k.random() for k in kids2]
        assert vals1 == vals2
        assert len(set(vals1)) == 3  # distinct streams

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)


class TestValidationHelpers:
    def test_as_float_array(self):
        arr = as_float_array([1, 2], "x")
        assert arr.dtype == float
        with pytest.raises(ValueError, match="one-dimensional"):
            as_float_array([[1.0]], "x")
        with pytest.raises(ValueError, match="empty"):
            as_float_array([], "x")
        with pytest.raises(ValueError, match="finite"):
            as_float_array([math.inf], "x")

    def test_scalar_checks(self):
        assert check_positive(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        assert check_nonnegative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative(-1.0, "x")
