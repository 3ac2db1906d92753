"""The unified Problem/solve() API: Problem semantics, the facade's
error parity with the registry, and registry re-registration."""

import math

import pytest

from repro.core import Platform, TaskChain
from repro.experiments import (
    METHODS,
    UnknownMethodError,
    get_method,
    register_method,
)
from repro.io import content_hash, dumps, loads
from repro.solve import Problem, auto_method_name, solve


@pytest.fixture
def chain():
    return TaskChain([4.0, 6.0, 2.0], [2.0, 1.0, 0.0])


@pytest.fixture
def hom():
    return Platform.homogeneous_platform(
        4, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=2
    )


@pytest.fixture
def het():
    return Platform(
        speeds=[2.0, 1.0, 3.0],
        failure_rates=[1e-6, 2e-6, 5e-7],
        bandwidth=2.0,
        link_failure_rate=1e-5,
        max_replication=2,
    )


@pytest.fixture
def problem(chain, hom):
    return Problem(chain, hom, max_period=50.0, max_latency=100.0)


class TestProblem:
    def test_frozen_and_validated(self, chain, hom):
        p = Problem(chain, hom, 50.0, 100.0)
        with pytest.raises(Exception):  # FrozenInstanceError
            p.max_period = 10.0
        with pytest.raises(TypeError, match="chain must be a TaskChain"):
            Problem("nope", hom)
        with pytest.raises(TypeError, match="platform must be a Platform"):
            Problem(chain, "nope")
        with pytest.raises(ValueError, match="max_period"):
            Problem(chain, hom, max_period=0.0)
        with pytest.raises(ValueError, match="max_latency"):
            Problem(chain, hom, max_latency=-1.0)
        with pytest.raises(ValueError, match="objective"):
            Problem(chain, hom, objective="speed")

    def test_defaults_unbounded(self, chain, hom):
        p = Problem(chain, hom)
        assert p.max_period == math.inf and p.max_latency == math.inf
        assert not p.bounded
        assert p.homogeneous and p.n_tasks == 3 and p.p == 4

    def test_with_bounds(self, problem):
        tighter = problem.with_bounds(max_period=25.0)
        assert tighter.max_period == 25.0
        assert tighter.max_latency == problem.max_latency  # kept
        assert tighter.chain is problem.chain  # shared, not copied
        lifted = problem.unbounded()
        assert not lifted.bounded

    def test_equality_and_hash(self, chain, hom, problem):
        twin = Problem(chain, hom, max_period=50.0, max_latency=100.0)
        assert twin == problem
        assert hash(twin) == hash(problem)
        assert {twin, problem} == {problem}
        assert problem != problem.with_bounds(max_period=49.0)

    def test_content_hash_stable_and_sensitive(self, chain, hom, problem):
        assert problem.content_hash() == problem.content_hash()  # cached
        # content_hash(problem) (the io entry point) agrees too.
        assert content_hash(problem) == problem.content_hash()
        changed = {
            "bounds": problem.with_bounds(max_period=51.0),
            "chain": Problem(TaskChain([4.0, 6.0, 3.0], [2.0, 1.0, 0.0]), hom, 50.0, 100.0),
        }
        for what, other in changed.items():
            assert other.content_hash() != problem.content_hash(), what

    def test_io_roundtrip(self, problem):
        assert loads(dumps(problem)) == problem

    def test_io_roundtrip_unbounded(self, chain, hom):
        """Infinite bounds survive the JSON codec (encoded as 'inf')."""
        p = Problem(chain, hom)
        text = dumps(p)
        assert '"inf"' in text
        assert loads(text) == p

    def test_repr_mentions_shape(self, problem):
        assert "3 tasks on 4 procs" in repr(problem)
        assert "unbounded" in repr(problem.unbounded())


class TestFacade:
    def test_auto_on_homogeneous_is_exact(self, problem):
        assert auto_method_name(problem) == "pareto-dp"
        result = solve(problem)
        assert result.feasible
        exact = solve(problem, method="pareto-dp")
        assert result.log_reliability == exact.log_reliability

    def test_auto_on_heterogeneous_is_heuristic(self, chain, het):
        p = Problem(chain, het)
        assert auto_method_name(p) == "heuristic"
        assert solve(p).feasible

    def test_explicit_method_object(self, problem):
        result = solve(problem, method=get_method("heur-l"))
        assert result.feasible

    def test_unknown_method_matches_registry_message(self, problem):
        """solve() must raise the registry's exact error, not its own."""
        with pytest.raises(UnknownMethodError) as via_registry:
            get_method("no-such-method")
        with pytest.raises(UnknownMethodError) as via_facade:
            solve(problem, method="no-such-method")
        assert str(via_facade.value) == str(via_registry.value)

    def test_hom_only_method_refuses_het_problem(self, chain, het):
        with pytest.raises(ValueError, match="requires homogeneous platforms"):
            solve(Problem(chain, het), method="pareto-dp")

    def test_brute_force_governed_by_its_own_budget(self, hom):
        """brute-force has no task-count cap: its search-space budget is
        the real limit, so budget-admissible sizes keep working."""
        chain = TaskChain([1.0] * 9, [1.0] * 8 + [0.0])
        small = Platform.homogeneous_platform(
            2, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=1
        )
        assert solve(Problem(chain, small), method="brute-force").feasible
        with pytest.raises(ValueError, match="exceeds budget"):
            solve(Problem(TaskChain([1.0] * 30, [1.0] * 29 + [0.0]), hom),
                  method="brute-force")

    def test_rejects_bare_tuples(self, chain, hom):
        with pytest.raises(TypeError, match="repro.solve.Problem"):
            solve((chain, hom, 50.0, 100.0))

    def test_seed_forwarded_to_stochastic(self, problem):
        a = solve(problem, method="anneal", seed=7)
        b = solve(problem, method="anneal", seed=7)
        assert a.log_reliability == b.log_reliability

    def test_crosscheck_methods_agree(self, problem):
        """The facade reaches every exact backend (ilp, ilp-bb,
        brute-force) and they agree on the optimum."""
        values = [
            solve(problem, method=name).log_reliability
            for name in ("pareto-dp", "ilp", "ilp-bb", "brute-force")
        ]
        assert max(values) - min(values) <= 1e-9 * max(1.0, abs(values[0]))


@pytest.fixture
def scratch_registry():
    before = dict(METHODS)
    yield METHODS
    METHODS.clear()
    METHODS.update(before)


class TestRegistry:
    def test_reregistration_fingerprint(self, scratch_registry):
        """Re-registering a Method's own callable (replace=True) keeps
        the fingerprint; dropping solve_batch changes it."""
        original = get_method("heur-l")
        replaced = register_method(
            "heur-l", replace=True, solve_batch=original.solve_batch
        )(original.solve)
        assert replaced.solve is original.solve
        assert replaced.fingerprint() == original.fingerprint()
        # Dropping the batched capability is an identity change, so the
        # fingerprint (a cache-key ingredient) must move with it.
        stripped = register_method("heur-l", replace=True)(original.solve)
        assert stripped.fingerprint() != original.fingerprint()
