"""The pluggable method registry: registration rules, capability
metadata, lookup errors, implementation fingerprints, and the
SweepResult unknown-method regression."""

import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro

from repro.algorithms.result import SolveResult
from repro.experiments import (
    METHODS,
    Method,
    UnknownMethodError,
    get_method,
    heterogeneous_suite,
    homogeneous_suite,
    register_method,
    run_sweep,
)


@pytest.fixture
def scratch_registry():
    """Let a test register methods and roll the registry back after."""
    before = dict(METHODS)
    yield METHODS
    METHODS.clear()
    METHODS.update(before)


class TestRegistration:
    def test_decorator_registers_and_returns_method(self, scratch_registry):
        @register_method("null-method", exact=False, cost_hint=0.5)
        def solve(problem):
            return SolveResult(feasible=False, method="null-method")

        assert isinstance(solve, Method)
        assert get_method("null-method") is solve
        assert solve.cost_hint == 0.5

    def test_duplicate_name_rejected(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_method("heur-l")(lambda problem: None)

    def test_replace_opt_in(self, scratch_registry):
        original = get_method("heur-l")
        replaced = register_method("heur-l", replace=True)(original.solve)
        assert get_method("heur-l") is replaced

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_method("")
        with pytest.raises(ValueError, match="non-empty string"):
            register_method(None)


class TestLookup:
    def test_get_method_raises_helpful_keyerror(self):
        """The error is a KeyError and lists every known method."""
        with pytest.raises(KeyError, match="unknown method 'nope'") as exc:
            get_method("nope")
        for name in METHODS:
            assert name in str(exc.value)

    def test_lookup_error_is_also_valueerror(self):
        # Backward compatibility: callers catching ValueError still work.
        with pytest.raises(ValueError, match="unknown method"):
            get_method("nope")
        assert issubclass(UnknownMethodError, KeyError)
        assert issubclass(UnknownMethodError, ValueError)


class TestCapabilities:
    def test_builtin_metadata(self):
        assert get_method("ilp").exact and get_method("ilp").homogeneous_only
        assert get_method("pareto-dp").exact
        assert not get_method("heur-l").exact
        assert get_method("ilp").cost_hint > get_method("heur-l").cost_hint
        assert "manual" in get_method("anneal").tags

    def test_hom_only_refuses_het_platform(self):
        pair = heterogeneous_suite(n_instances=1, seed=0)[0]
        with pytest.raises(ValueError, match="requires homogeneous platforms"):
            get_method("ilp").check_platform(pair.het_platform)
        # The error names the method and suggests alternatives.
        with pytest.raises(ValueError, match="heur-l"):
            get_method("pareto-dp").check_platform(pair.het_platform)
        # Homogeneous platforms pass; any platform passes for heuristics.
        get_method("ilp").check_platform(pair.hom_platform)
        get_method("heur-l").check_platform(pair.het_platform)

    def test_run_sweep_rejects_het_up_front(self):
        pair = heterogeneous_suite(n_instances=1, seed=0)[0]
        with pytest.raises(ValueError, match="requires homogeneous platforms"):
            run_sweep(
                [(pair.chain, pair.het_platform)],
                [get_method("pareto-dp")],
                [(50.0, 100.0)],
            )


class TestFingerprints:
    """Cache keys and the worker handshake pair a method's name with an
    implementation fingerprint — names alone don't identify code."""

    def test_different_code_different_fingerprint(self):
        a = Method("m", lambda problem: None, exact=False, homogeneous_only=False)
        b = Method("m", lambda problem: 1 + 1, exact=False, homogeneous_only=False)
        assert a.fingerprint() != b.fingerprint()

    def test_same_code_different_captures(self):
        # heur-l and heur-p share one closure body; only the captured
        # strings differ — the fingerprint must still tell them apart.
        assert get_method("heur-l").fingerprint() != get_method("heur-p").fingerprint()

    def test_stable_across_calls_and_mutable_state(self):
        state = {"n": 0}

        def solve(problem):
            state["n"] += 1

        m = Method("counted", solve, exact=False, homogeneous_only=False)
        before = m.fingerprint()
        state["n"] = 99  # runtime state must not churn the key
        assert m.fingerprint() == before

    def test_no_source_file_no_fingerprint(self, scratch_registry, tmp_path):
        """A callable without a source file (here a functools.partial)
        gets no fingerprint, so its method runs uncached in the parent."""
        from repro.experiments.cache import ResultCache

        heur_l = get_method("heur-l").solve
        m = register_method("partial-heur-l")(functools.partial(heur_l))
        assert m.fingerprint() is None
        cache = ResultCache(tmp_path / "cache")
        suite = homogeneous_suite(n_instances=2, seed=3)
        sweep = run_sweep(suite, [m], [(200.0, 750.0)], cache=cache, jobs=2)
        assert cache.stats()["puts"] == cache.stats()["misses"] == 0
        assert {e["source"] for e in sweep.unit_events} == {"parent"}


#: The package source tree this test process imports.
PACKAGE = pathlib.Path(repro.__file__).resolve().parent

# Prints every registered method's fingerprint as JSON, after checking
# that the package came from the interpreter's PYTHONPATH.
_FINGERPRINTS = (
    "import json, os, repro\n"
    "assert repro.__file__.startswith(os.environ['PYTHONPATH']), repro.__file__\n"
    "from repro.experiments.methods import METHODS\n"
    "print(json.dumps({n: m.fingerprint() for n, m in METHODS.items()}))\n"
)


def run_fresh(script: str, pythonpath, cwd) -> str:
    """Run *script* in a fresh interpreter importing ``repro`` from
    *pythonpath*; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A scratch copy of the package and its builtin fingerprints."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(PACKAGE, root / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return root, json.loads(run_fresh(_FINGERPRINTS, root, root))


class TestFingerprintFollowsSource:
    """A method's fingerprint hashes the source of its defining module
    and every repro module that module reaches: editing a solver the
    method calls moves it, editing code no solver reaches does not."""

    def test_copy_matches_this_checkout(self, package_copy):
        # Fingerprints name modules, not paths: a copy keys alike.
        _, baseline = package_copy
        assert len(baseline) == 15
        assert baseline == {name: METHODS[name].fingerprint() for name in baseline}

    @pytest.mark.parametrize("edited, moved", [
        ("algorithms/_hom_dp.py", {"pareto-dp", "dp-latency", "dp-period"}),
        ("algorithms/batch.py", {"heur-l"}),
        ("cli.py", set()),
        # No solver imports the facade; a docstring example does not count.
        ("solve/facade.py", set()),
        ("obs/ledger.py", set()),
    ])
    def test_edit_moves_exactly_the_callers(self, package_copy, edited, moved):
        root, baseline = package_copy
        path = root / "repro" / edited
        source = path.read_bytes()
        try:
            path.write_bytes(source + b"\n# a no-op edit\n")
            after = json.loads(run_fresh(_FINGERPRINTS, root, root))
        finally:
            path.write_bytes(source)
        changed = {name for name in baseline if after[name] != baseline[name]}
        if moved:
            assert moved <= changed
        else:
            assert changed == set()

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_solve_loads_only_hashed_modules(self, name, tmp_path):
        """Solving through ``solve`` (and ``solve_batch``) loads no repro
        module the fingerprint left out — a missed import form would."""
        script = f"""
import json, sys
from repro.core.chain import TaskChain
from repro.core.ensemble import ensembles_from_instances
from repro.core.platform import Platform
from repro.experiments.methods import _source_closure, get_method
from repro.solve.problem import Problem

method = get_method({name!r})
objective = method.objectives[0]
floor = 0.0 if objective == "reliability" else 0.5
chain = TaskChain([6.0, 6.0, 4.0], [1.0, 2.0, 0.0])
platform = Platform.homogeneous_platform(4, failure_rate=1e-4, max_replication=2)
problem = Problem(chain, platform, max_period=20.0, max_latency=60.0,
                  objective=objective, min_reliability=floor)
method.solve(problem)
if method.solve_batch is not None:
    [ensemble] = ensembles_from_instances([(chain, platform)])
    method.solve_batch(ensemble, [(20.0, 60.0)], objective=objective, min_reliability=floor)
hashed = set()
for fn in (method.solve, method.solve_batch):
    if fn is not None:
        hashed |= {{m for m, _ in _source_closure(fn.__module__, fn.__code__.co_filename)}}
loaded = {{m for m in sys.modules if m == "repro" or m.startswith("repro.")}}
print(json.dumps(sorted(loaded - hashed)))
"""
        unhashed = json.loads(run_fresh(script, PACKAGE.parent, tmp_path))
        assert unhashed == []


class TestSweepResultErrors:
    """Regression: unknown method names in SweepResult helpers raise a
    descriptive UnknownMethodError, not a bare ValueError from _idx."""

    @pytest.fixture(scope="class")
    def sweep(self):
        suite = homogeneous_suite(n_instances=2, seed=13)
        return run_sweep(
            suite, [get_method("heur-l"), get_method("heur-p")], [(200.0, 750.0)]
        )

    def test_counts_unknown_method(self, sweep):
        with pytest.raises(UnknownMethodError, match="not in sweep") as exc:
            sweep.counts("ilp")
        assert "heur-l" in str(exc.value) and "heur-p" in str(exc.value)

    def test_average_failure_unknown_method(self, sweep):
        with pytest.raises(KeyError, match="'no-such-method' not in sweep"):
            sweep.average_failure("no-such-method")

    def test_known_method_still_works(self, sweep):
        assert sweep.counts("heur-l").shape == (1,)
