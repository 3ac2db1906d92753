"""The on-disk result cache: round-trips, stable keys, invalidation,
corruption recovery, and the zero-solve warm-run guarantee — exercised
against both storage backends."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms import UnitResults
from repro.core import Platform, TaskChain
from repro.experiments import Method, ResultCache, get_method, homogeneous_suite, run_sweep
from repro.experiments.cache import (
    CACHE_FORMAT,
    resolve_cache,
    unit_arrays,
    unit_record,
)
from repro.io import content_hash
from repro.solve import Problem

BOUNDS = [(100.0, 750.0), (300.0, 750.0)]

BACKENDS = ["files", "sqlite"]


def problems(chain, platform, bounds=BOUNDS):
    """The unit's Problem family, as run_sweep derives it."""
    return [Problem(chain, platform, P, L) for P, L in bounds]


@pytest.fixture(params=BACKENDS)
def cache(request, tmp_path):
    return ResultCache(tmp_path / "cache", backend=request.param)


@pytest.fixture(scope="module")
def instance():
    return homogeneous_suite(n_instances=1, seed=8)[0]


def one_row(solved, failure, values, period=None, latency=None, info=None):
    """A one-row UnitResults (period and latency default to ``inf``)."""
    inf = np.full(len(solved), np.inf)
    arrays = [solved, failure, values,
              inf if period is None else period, inf if latency is None else latency]
    return UnitResults(*(np.asarray(a)[None] for a in arrays), [info])


def put_unit(cache, key, solved, failure, objective_values=None, info=None):
    """Store a unit through the canonical record API (objective values
    default to the reliabilities ``1 - failure``)."""
    if objective_values is None:
        objective_values = 1.0 - np.asarray(failure)
    cache.put_record(
        key, unit_record(one_row(solved, failure, objective_values, info=info), 0)
    )


def get_unit(cache, key, n_points):
    """Look a unit up through the canonical record API: its
    ``(solved, failure, objective_values, info)``."""
    record = cache.get_record(key, n_points=n_points)
    if record is None:
        return None
    row = unit_arrays(record, n_points)
    return row.solved[0], row.failure[0], row.values[0], row.infos[0]


def entry_keys(cache):
    return [key for key, _ in cache.backend.scan()]


def entry_text(cache, key):
    for k, text in cache.backend.scan():
        if k == key:
            return text
    return None


def plant_entry(cache, key, text):
    """Put raw entry text on disk (damage injection, stale formats) —
    ``store_text`` is the one backend-agnostic way to write bytes the
    record API would refuse."""
    cache.backend.store_text(key, text)


class TestRoundTrip:
    def test_put_get(self, cache):
        solved = np.array([True, False])
        failure = np.array([1.25e-4, 1.0])
        values = np.array([0.875, float("inf")])
        period = np.array([12.5, float("inf")])
        latency = np.array([40.125, float("inf")])
        written = one_row(solved, failure, values, period, latency)
        cache.put_record("ab" * 32, unit_record(written, 0, method_name="heur-l"))
        got = unit_arrays(cache.get_record("ab" * 32, n_points=2), 2)
        # Floats survive JSON exactly (shortest-round-trip repr), and
        # infinite values round-trip through their token.
        for name in UnitResults.ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(written, name)), name
        assert got.infos == [None]
        assert cache.stats() == {
            "hits": 1, "misses": 0, "puts": 1, "corrupt": 0, "hit_rate": 1.0,
        }

    def test_miss_on_absent_key(self, cache):
        assert cache.get_record("cd" * 32, n_points=2) is None
        assert cache.misses == 1
        assert cache.corrupt == 0  # absent is a plain miss, not damage

    def test_info_round_trips_and_defaults_none(self, cache):
        solved = np.array([True])
        failure = np.array([0.5])
        put_unit(cache, "aa" * 32, solved, failure,
                 info={"probes": 7, "converged": True})
        put_unit(cache, "bb" * 32, solved, failure)
        assert get_unit(cache, "aa" * 32, 1)[3] == {"probes": 7, "converged": True}
        assert get_unit(cache, "bb" * 32, 1)[3] is None
        # Entries without info omit the field entirely (byte-identity of
        # the batched and per-row write paths for detail-free methods).
        assert "info" not in json.loads(entry_text(cache, "bb" * 32))

    def test_hit_rate_and_reset(self, cache):
        assert cache.stats()["hit_rate"] is None  # no lookups yet
        put_unit(cache, "ab" * 32, np.array([True]), np.array([0.5]))
        get_unit(cache, "ab" * 32, 1)
        get_unit(cache, "cd" * 32, 1)
        get_unit(cache, "ef" * 32, 1)
        stats = cache.stats()
        assert stats["hit_rate"] == pytest.approx(1 / 3)
        cache.reset()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "puts": 0, "corrupt": 0, "hit_rate": None,
        }
        # Entries survive a counter reset — only the stats are zeroed.
        assert get_unit(cache, "ab" * 32, 1) is not None
        assert cache.stats()["hit_rate"] == 1.0

    def test_storage_stats_report_persistent_totals(self, cache):
        empty = cache.storage_stats()
        assert empty["backend"] == cache.backend.kind
        assert empty["entries"] == 0
        put_unit(cache, "ab" * 32, np.array([True]), np.array([0.5]))
        put_unit(cache, "cd" * 32, np.array([False]), np.array([1.0]))
        totals = cache.storage_stats()
        assert totals["entries"] == 2 and totals["bytes"] > 0
        # Unlike stats(), the totals survive a fresh handle on the same
        # root — they describe the store, not this process's lookups.
        fresh = ResultCache(cache.root)
        assert fresh.backend.kind == cache.backend.kind
        assert fresh.storage_stats()["entries"] == 2


class TestKeyStability:
    def test_stable_across_process_restarts(self, instance):
        """Content hashes must not depend on per-process hash salting."""
        chain, platform = instance
        cache = ResultCache(".")
        here = cache.unit_key("heur-l", problems(chain, platform))
        script = (
            "from repro.experiments import homogeneous_suite\n"
            "from repro.experiments.cache import ResultCache\n"
            "from repro.solve import Problem\n"
            "chain, platform = homogeneous_suite(n_instances=1, seed=8)[0]\n"
            f"units = [Problem(chain, platform, P, L) for P, L in {BOUNDS!r}]\n"
            "print(ResultCache('.').unit_key('heur-l', units))\n"
        )
        import repro

        env = dict(os.environ)
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        there = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert here == there

    def test_keys_are_backend_independent(self, instance, tmp_path):
        chain, platform = instance
        keys = {
            ResultCache(tmp_path / kind, backend=kind).unit_key(
                "heur-l", problems(chain, platform)
            )
            for kind in BACKENDS
        }
        assert len(keys) == 1

    def test_invalidation_on_ingredient_change(self, instance):
        chain, platform = instance
        cache = ResultCache(".")
        base = cache.unit_key("heur-l", problems(chain, platform))
        other_chain = TaskChain(chain.work * 2.0, chain.output)
        other_platform = Platform(
            speeds=platform.speeds * 2.0,
            failure_rates=platform.failure_rates,
            bandwidth=platform.bandwidth,
            link_failure_rate=platform.link_failure_rate,
            max_replication=platform.max_replication,
        )
        variants = {
            "method": cache.unit_key("heur-p", problems(chain, platform)),
            "chain": cache.unit_key("heur-l", problems(other_chain, platform)),
            "platform": cache.unit_key("heur-l", problems(chain, other_platform)),
            "bounds": cache.unit_key("heur-l", problems(chain, platform, BOUNDS[:1])),
            "seed": cache.unit_key("heur-l", problems(chain, platform), seed=7),
        }
        for what, key in variants.items():
            assert key != base, f"changing the {what} must change the key"
        assert len(set(variants.values())) == len(variants)

    def test_empty_unit_rejected(self, instance):
        with pytest.raises(ValueError, match="at least one Problem"):
            ResultCache(".").unit_key("heur-l", [])

    def test_content_hash_model_objects(self, instance):
        chain, platform = instance
        assert content_hash(chain) == content_hash(chain)
        assert content_hash(chain) != content_hash(platform)


class TestCorruptionRecovery:
    def _one_entry(self, cache):
        chain, platform = homogeneous_suite(n_instances=1, seed=8)[0]
        key = cache.unit_key("x", problems(chain, platform))
        put_unit(cache, key, np.array([True, True]), np.array([0.5, 0.5]))
        return key

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json at all {",
            json.dumps({"repro_cache": 999, "solved": [True], "failure": [0.5]}),
            json.dumps({"repro_cache": 1, "solved": [True, True], "failure": [0.5, 0.5]}),  # stale format
            json.dumps({"repro_cache": CACHE_FORMAT, "solved": [True], "failure": [0.5]}),  # wrong len
            json.dumps({"repro_cache": CACHE_FORMAT}),  # missing arrays
            json.dumps([1, 2, 3]),  # wrong top-level type
        ],
    )
    def test_corrupt_entry_is_dropped_and_recomputed(self, cache, garbage):
        key = self._one_entry(cache)
        plant_entry(cache, key, garbage)
        assert cache.get_record(key, n_points=2) is None  # treated as a miss ...
        assert entry_text(cache, key) is None  # ... and discarded
        assert cache.misses == 1 and cache.corrupt == 1  # ... and counted
        put_unit(cache, key, np.array([True, False]), np.array([0.25, 1.0]))
        got = get_unit(cache, key, 2)  # recovery: rewritten entry reads back
        assert got is not None and got[0][0] and not got[0][1]
        assert cache.corrupt == 1  # the healthy re-read adds nothing

    def test_truncated_entry_counts_as_corrupt_not_plain_miss(self, cache):
        """Regression: a damaged entry used to be indistinguishable from
        an absent one — both only bumped ``misses``."""
        key = self._one_entry(cache)
        plant_entry(cache, key, entry_text(cache, key)[:12])  # interrupted write
        assert cache.get_record(key, n_points=2) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "puts": 1, "corrupt": 1, "hit_rate": 0.0,
        }
        # A lookup of a key that was never written stays corrupt-free.
        assert cache.get_record("ef" * 32, n_points=2) is None
        assert cache.stats() == {
            "hits": 0, "misses": 2, "puts": 1, "corrupt": 1, "hit_rate": 0.0,
        }

    def test_entry_without_objective_values_is_corrupt(self, cache, instance):
        """Every writer supplies objective values, so a null field marks
        a malformed entry: counted corrupt, recomputed and rewritten."""
        methods = [get_method("heur-l")]
        first = run_sweep([instance], methods, BOUNDS, cache=cache)
        (key,) = entry_keys(cache)
        record = json.loads(entry_text(cache, key))
        plant_entry(cache, key, json.dumps({**record, "objective_values": None}))
        again = run_sweep([instance], methods, BOUNDS, cache=cache)
        assert np.array_equal(first.objective_values, again.objective_values)
        assert cache.stats()["corrupt"] == 1
        assert json.loads(entry_text(cache, key)) == record

    def test_corrupt_record_lookup_counts_too(self, cache):
        cache.put_record("12" * 32, {"kind": "note", "period": 4.0})
        plant_entry(cache, "12" * 32, "{oops")
        assert cache.get_record("12" * 32) is None
        assert cache.corrupt == 1 and cache.misses == 1

    def test_corrupt_entry_heals_through_run_sweep(self, cache, instance):
        methods = [get_method("heur-l")]
        first = run_sweep([instance], methods, BOUNDS, cache=cache)
        (key,) = entry_keys(cache)
        plant_entry(cache, key, "truncated garbag")
        again = run_sweep([instance], methods, BOUNDS, cache=cache)
        assert np.array_equal(first.failure, again.failure)
        assert json.loads(entry_text(cache, key))["repro_cache"] == CACHE_FORMAT
        assert cache.stats()["corrupt"] == 1


class TestWarmRunDoesNoWork:
    def test_second_cached_run_performs_zero_solves(self, cache):
        """The acceptance criterion: a warm cache means zero method
        solves — verified with a hit-counting registered method."""
        from repro.experiments import METHODS, register_method

        solve_calls = {"n": 0}

        def counting_solve(problem):
            solve_calls["n"] += 1
            return get_method("heur-l").solve_problem(problem)

        counted = register_method("counted-heur-l")(counting_solve)
        try:
            suite = homogeneous_suite(n_instances=3, seed=21)
            first = run_sweep(suite, [counted], BOUNDS, cache=cache)
            n_units = len(suite)
            assert solve_calls["n"] == n_units * len(BOUNDS)
            assert cache.stats() == {
                "hits": 0, "misses": n_units, "puts": n_units, "corrupt": 0,
                "hit_rate": 0.0,
            }

            second = run_sweep(suite, [counted], BOUNDS, cache=cache)
            assert solve_calls["n"] == n_units * len(BOUNDS)  # zero new solves
            assert cache.hits == n_units
            assert np.array_equal(first.solved, second.solved)
            assert np.array_equal(first.failure, second.failure)
        finally:
            METHODS.pop("counted-heur-l", None)

    def test_ad_hoc_methods_are_never_cached(self, cache):
        """A bare name cannot fingerprint a local callable, so methods
        outside the registry bypass the cache entirely."""
        local = Method(
            name="heur-l",  # same name as a builtin, different object
            solve=lambda problem: get_method("heur-l").solve_problem(problem),
            exact=False, homogeneous_only=False,
        )
        suite = homogeneous_suite(n_instances=2, seed=21)
        run_sweep(suite, [local], BOUNDS, cache=cache)
        assert cache.stats() == {
            "hits": 0, "misses": 0, "puts": 0, "corrupt": 0, "hit_rate": None,
        }

    def test_infinite_bounds_are_cacheable(self, cache):
        """Unbounded sweeps (P or L = inf) must work with the cache on."""
        suite = homogeneous_suite(n_instances=1, seed=21)
        inf_bounds = [(float("inf"), 750.0), (250.0, float("inf"))]
        first = run_sweep(suite, [get_method("heur-l")], inf_bounds, cache=cache)
        second = run_sweep(suite, [get_method("heur-l")], inf_bounds, cache=cache)
        assert cache.hits == 1 and cache.puts == 1
        assert np.array_equal(first.failure, second.failure)


class TestResolveCache:
    def test_none_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = resolve_cache(None)
        assert isinstance(store, ResultCache) and store.root == tmp_path

    def test_passthrough_and_path(self, cache, tmp_path):
        assert resolve_cache(cache) is cache
        assert resolve_cache(tmp_path).root == tmp_path


class TestLegacyPathRemoved:
    """The one-release format-3 read path is gone: pre-columnar entries
    simply miss (and sit inert on disk under keys that never match)."""

    def test_legacy_symbols_are_gone(self):
        import repro.experiments.cache as cache_mod

        assert not hasattr(cache_mod, "LEGACY_CACHE_FORMAT")
        assert not hasattr(cache_mod, "get_legacy_unit")
        assert not hasattr(ResultCache, "get_legacy_unit")

    def test_format3_entry_misses_and_recomputes(self, cache, instance):
        chain, platform = instance
        key = cache.unit_key("heur-l", problems(chain, platform))
        # Plant a format-3-shaped payload under the format-4 key: the
        # stale stamp must read as corrupt, not silently replay.
        plant_entry(cache, key, json.dumps({
            "repro_cache": 3, "method": "heur-l",
            "n_points": 2, "solved": [True, False], "failure": [0.125, 1.0],
        }))
        assert cache.get_record(key, n_points=2) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "puts": 0, "corrupt": 1, "hit_rate": 0.0,
        }
