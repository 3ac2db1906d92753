"""The on-disk result cache: round-trips, the flat ``<key>.json``
layout and its canonical encoding, atomic writes, stable keys,
invalidation, corruption recovery, the zero-solve warm-run guarantee,
concurrent writers, and the ``repro cache`` CLI."""

import json
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import cli
from repro.algorithms import UnitResults
from repro.core import Platform, TaskChain
from repro.core.ensemble import instance_digest
from repro.experiments import (
    METHODS,
    Method,
    ResultCache,
    get_method,
    homogeneous_suite,
    run_sweep,
)
from repro.experiments import replay
from repro.experiments.cache import (
    CACHE_FORMAT,
    resolve_cache,
    unit_record,
)
from repro.io import content_hash
from repro.obs import collect
from repro.util.hashing import source_digest

BOUNDS = [(100.0, 750.0), (300.0, 750.0)]
SWEEP_ARRAYS = ("solved", "failure", "objective_values", "period", "latency")


def key_for(cache, method_name, chain, platform, bounds=BOUNDS, **kwargs):
    """The key run_sweep derives for *method_name* on one materialized
    instance — the same digest an Ensemble row hashes to."""
    digest = instance_digest(
        chain.work, chain.output, platform.speeds, platform.failure_rates,
        platform.bandwidth, platform.link_failure_rate, platform.max_replication,
    )
    return cache.unit_key_for(method_name, digest, bounds, **kwargs)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


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
    row = cache.get_record(key, n_points=n_points)
    if row is None:
        return None
    return row.solved[0], row.failure[0], row.values[0], row.infos[0]


def entry_keys(cache):
    return [key for key, _ in cache.scan()]


def entry_text(cache, key):
    path = cache.path(key)
    return path.read_text() if path.exists() else None


def plant_entry(cache, key, text):
    """Put raw entry text on disk (damage injection, stale formats) —
    bytes the record API would refuse."""
    cache.root.mkdir(parents=True, exist_ok=True)
    cache.path(key).write_text(text)


def canonical(record):
    """The entry text :meth:`ResultCache.put_record` writes for *record*."""
    return json.dumps({"repro_cache": CACHE_FORMAT, **record}, sort_keys=True)


class TestRoundTrip:
    def test_put_get(self, cache):
        solved = np.array([True, False])
        failure = np.array([1.25e-4, 1.0])
        values = np.array([0.875, float("inf")])
        period = np.array([12.5, float("inf")])
        latency = np.array([40.125, float("inf")])
        written = one_row(solved, failure, values, period, latency)
        cache.put_record("ab" * 32, unit_record(written, 0, method_name="heur-l"))
        got = cache.get_record("ab" * 32, n_points=2)
        assert isinstance(got, UnitResults)
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
        assert empty == {"entries": 0, "bytes": 0, "run_records": 0}
        put_unit(cache, "ab" * 32, np.array([True]), np.array([0.5]))
        put_unit(cache, "cd" * 32, np.array([False]), np.array([1.0]))
        totals = cache.storage_stats()
        assert totals["entries"] == 2 and totals["bytes"] > 0
        # Unlike stats(), the totals survive a fresh handle on the same
        # root — they describe the store, not this process's lookups.
        fresh = ResultCache(cache.root)
        assert fresh.storage_stats()["entries"] == 2


#: Keys out of sorted order, two sharing their first two characters.
KEYS = ("cd" * 32, "ab" * 32, "ef" * 32, "ab" + "01" * 31)


class TestFlatLayout:
    """One directory, one ``<key>.json`` file per entry."""

    def test_path_is_the_key_file_in_root(self, cache):
        key = "3f" + "00" * 31
        assert cache.path(key) == cache.root / f"{key}.json"

    def test_cold_sweep_creates_no_subdirectory(self, cache, instance):
        methods = [get_method("heur-l"), get_method("heur-p")]
        run_sweep([instance], methods, BOUNDS, cache=cache)
        files = sorted(cache.root.iterdir())
        assert not any(f.is_dir() for f in files)
        assert [f.name for f in files] == [f"{key}.json" for key in entry_keys(cache)]
        assert len(files) == cache.puts == 2

    def test_root_accepts_strings_and_paths(self, tmp_path):
        assert ResultCache(str(tmp_path)).root == ResultCache(tmp_path).root

    def test_put_writes_canonical_sorted_json(self, cache):
        record = {"zeta": [1, 2], "alpha": {"b": 1, "a": 2}, "mid": "inf"}
        cache.put_record("ab" * 32, record)
        assert cache.path("ab" * 32).read_text() == canonical(record)

    def test_scan_is_key_sorted(self, cache):
        for key in KEYS:
            cache.put_record(key, {"k": key})
        assert entry_keys(cache) == sorted(KEYS)

    def test_scan_yields_entry_texts(self, cache):
        cache.put_record("ab" * 32, {"v": 1})
        assert list(cache.scan()) == [("ab" * 32, canonical({"v": 1}))]

    def test_scan_ignores_temp_files_and_a_stray_database(self, cache):
        cache.put_record("ab" * 32, {"v": 1})
        (cache.root / "leftover.tmp").write_text("{half")
        (cache.root / "cache.db").write_bytes(b"from an older release")
        assert entry_keys(cache) == ["ab" * 32]
        assert cache.storage_stats()["entries"] == 1

    def test_fan_out_entries_are_never_read_or_counted(self, cache):
        """A pre-5.0 directory's ``<key[0:2]>/<key>.json`` entries sit
        inert: not served, not scanned, not counted."""
        key = "ab" * 32
        (cache.root / "ab").mkdir(parents=True)
        (cache.root / "ab" / f"{key}.json").write_text(canonical({"v": 1}))
        assert cache.get_record(key) is None
        assert cache.stats()["corrupt"] == 0
        assert list(cache.scan()) == []
        assert cache.storage_stats() == {"entries": 0, "bytes": 0, "run_records": 0}


class TestEntryFiles:
    def test_absent_key_is_a_plain_miss(self, cache):
        assert cache.get_record("ab" * 32) is None
        cache.put_record("cd" * 32, {"v": 1})
        assert cache.get_record("ab" * 32) is None
        assert cache.misses == 2 and cache.corrupt == 0

    def test_round_trip(self, cache):
        record = {"solved": [True, False], "failure": [0.125, 1.0], "v": "inf"}
        cache.put_record("ab" * 32, record)
        assert cache.get_record("ab" * 32) == {"repro_cache": CACHE_FORMAT, **record}

    def test_put_overwrites_in_place(self, cache):
        cache.put_record("ab" * 32, {"v": 1})
        cache.put_record("ab" * 32, {"v": 2})
        assert cache.get_record("ab" * 32)["v"] == 2
        assert cache.storage_stats()["entries"] == 1
        assert not list(cache.root.glob("*.tmp"))

    def test_failed_write_keeps_old_entry_and_leaves_no_temp_file(self, cache, monkeypatch):
        cache.put_record("ab" * 32, {"v": 1})

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.put_record("ab" * 32, {"v": 2})
        monkeypatch.undo()
        assert cache.puts == 1  # the failed write is not counted
        assert cache.get_record("ab" * 32)["v"] == 1
        assert not list(cache.root.glob("*.tmp"))

    @pytest.mark.parametrize(
        "garbage",
        ["", "not json {", "[1, 2]", '"text"', "null", "42"],
        ids=["empty", "not-json", "list", "string", "null", "number"],
    )
    def test_undecodable_entry_reads_as_corrupt(self, cache, garbage):
        plant_entry(cache, "ab" * 32, garbage)
        assert cache.get_record("ab" * 32) is None
        assert cache.misses == 1 and cache.corrupt == 1
        assert not cache.path("ab" * 32).exists()  # discarded for rewrite

    def test_discard_removes_and_tolerates_absent(self, cache):
        cache.put_record("ab" * 32, {"v": 1})
        cache.discard("ab" * 32)
        assert not cache.path("ab" * 32).exists()
        cache.discard("ab" * 32)  # already gone
        cache.discard("cd" * 32)  # never written

    @pytest.mark.parametrize(
        "record",
        [
            {},
            {"nested": {"b": [1.5, "inf", None], "a": True}},
            {"text": "périodes ≤ 10"},
            {"tiny": 1.25e-300, "big": 1.0e300, "neg": -0.0},
        ],
        ids=["empty", "nested", "unicode", "floats"],
    )
    def test_encoding_round_trips(self, cache, record):
        cache.put_record("ab" * 32, record)
        text = cache.path("ab" * 32).read_text()
        assert text == canonical(record)
        stored = cache.get_record("ab" * 32)
        assert stored == {"repro_cache": CACHE_FORMAT, **record}
        assert json.dumps(stored, sort_keys=True) == text

    def test_encoding_ignores_insertion_order(self, cache):
        cache.put_record("ab" * 32, {"a": 1, "b": 2})
        cache.put_record("cd" * 32, {"b": 2, "a": 1})
        assert entry_text(cache, "ab" * 32) == entry_text(cache, "cd" * 32)


class TestMissingRoot:
    """Read-side operations on a directory that was never written must
    report an empty store and must not create it."""

    def test_scan_and_totals(self, cache):
        assert list(cache.scan()) == []
        assert cache.storage_stats() == {"entries": 0, "bytes": 0, "run_records": 0}
        assert not cache.root.exists()

    def test_vacuum(self, cache):
        assert cache.vacuum() == {"removed_tmp": 0, "removed_runs": 0}
        assert not cache.root.exists()

    def test_lookup_and_discard(self, cache):
        assert cache.get_record("ab" * 32) is None
        cache.discard("ab" * 32)
        assert cache.stats()["corrupt"] == 0
        assert not cache.root.exists()


class TestVacuum:
    def test_keeps_entries(self, cache):
        for key in KEYS:
            cache.put_record(key, {"k": key})
        assert cache.vacuum() == {"removed_tmp": 0, "removed_runs": 0}
        assert entry_keys(cache) == sorted(KEYS)

    def test_removes_orphans_then_has_nothing_left_to_do(self, cache):
        cache.put_record("ab" * 32, {"v": 1})
        (cache.root / "orphan.tmp").write_text("{half")
        assert cache.vacuum() == {"removed_tmp": 1, "removed_runs": 0}
        assert cache.vacuum() == {"removed_tmp": 0, "removed_runs": 0}
        assert cache.get_record("ab" * 32)["v"] == 1

    def test_removes_run_records_of_other_source(self, cache):
        """A run record keeps the source digest it was written under;
        one of other source, or of none, no run can key to again."""
        manifest = {field: {} for field in replay.REPLAYED_FIELDS}
        manifest.update(run_id="r", versions={})
        replay.write_record(cache.root, "current", {}, manifest, "", [])
        record = json.loads((cache.root / "current.run").read_text())
        assert record["source"] == source_digest()
        (cache.root / "edited.run").write_text(json.dumps({**record, "source": "0" * 64}))
        del record["source"]
        (cache.root / "unstamped.run").write_text(json.dumps(record))
        (cache.root / "torn.run").write_text("{half")
        cache.put_record("ab" * 32, {"v": 1})
        assert cache.vacuum() == {"removed_tmp": 0, "removed_runs": 3}
        assert sorted(p.name for p in cache.root.iterdir()) == [
            f"{'ab' * 32}.json", "current.run",
        ]
        assert cache.vacuum() == {"removed_tmp": 0, "removed_runs": 0}


class TestKeyStability:
    def test_stable_across_process_restarts(self, instance):
        """Content hashes must not depend on per-process hash salting."""
        chain, platform = instance
        here = key_for(ResultCache("."), "heur-l", chain, platform)
        script = (
            "from repro.experiments import homogeneous_suite\n"
            "from repro.experiments.cache import ResultCache\n"
            "from repro.core.ensemble import ensembles_from_instances\n"
            "(ensemble,) = ensembles_from_instances(homogeneous_suite(n_instances=1, seed=8))\n"
            f"print(ResultCache('.').unit_key_for('heur-l', ensemble.row_hash(0), {BOUNDS!r}))\n"
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

    def test_invalidation_on_ingredient_change(self, instance):
        chain, platform = instance
        cache = ResultCache(".")
        base = key_for(cache, "heur-l", chain, platform)
        other_chain = TaskChain(chain.work * 2.0, chain.output)
        other_platform = Platform(
            speeds=platform.speeds * 2.0,
            failure_rates=platform.failure_rates,
            bandwidth=platform.bandwidth,
            link_failure_rate=platform.link_failure_rate,
            max_replication=platform.max_replication,
        )
        variants = {
            "method": key_for(cache, "heur-p", chain, platform),
            "chain": key_for(cache, "heur-l", other_chain, platform),
            "platform": key_for(cache, "heur-l", chain, other_platform),
            "bounds": key_for(cache, "heur-l", chain, platform, BOUNDS[:1]),
        }
        for what, key in variants.items():
            assert key != base, f"changing the {what} must change the key"
        assert len(set(variants.values())) == len(variants)

    def test_content_hash_model_objects(self, instance):
        chain, platform = instance
        assert content_hash(chain) == content_hash(chain)
        assert content_hash(chain) != content_hash(platform)


class TestCorruptionRecovery:
    def _one_entry(self, cache):
        chain, platform = homogeneous_suite(n_instances=1, seed=8)[0]
        key = key_for(cache, "x", chain, platform)
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
        from repro.experiments import register_method

        solve_calls = {"n": 0}

        def counting_solve(problem):
            solve_calls["n"] += 1
            return get_method("heur-l").solve(problem)

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
            solve=lambda problem: get_method("heur-l").solve(problem),
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


    def test_warm_sweep_decodes_each_hit_once(self, cache, monkeypatch):
        """A hit comes back from the lookup already decoded: one
        ``unit_arrays`` call per cached unit, none in the harness."""
        import repro.experiments.cache as cache_module
        import repro.experiments.harness as harness_module

        suite = homogeneous_suite(n_instances=3, seed=21)
        methods = [get_method("heur-l"), get_method("heur-p")]
        cold = run_sweep(suite, methods, BOUNDS, cache=cache)
        decodes = []
        real = cache_module.unit_arrays

        def counting(record, n_points):
            decodes.append(1)
            return real(record, n_points)

        # Wherever a decode would be looked up from, it is counted.
        monkeypatch.setattr(cache_module, "unit_arrays", counting)
        monkeypatch.setattr(harness_module, "unit_arrays", counting, raising=False)
        cache.reset()
        warm = run_sweep(suite, methods, BOUNDS, cache=cache)
        assert cache.hits == len(decodes) == len(methods) * len(suite)
        assert np.array_equal(cold.failure, warm.failure)


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
        key = key_for(cache, "heur-l", chain, platform)
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


class TestStaleStores:
    def test_old_cache_db_is_not_read(self, tmp_path, instance):
        """A directory holding a database file from an older release is
        just a directory: sweeps neither read nor trip over it."""
        root = tmp_path / "cache"
        root.mkdir()
        (root / "cache.db").write_bytes(b"not a database")
        cache = ResultCache(root)
        run_sweep([instance], [get_method("heur-l")], BOUNDS, cache=cache)
        assert cache.stats()["puts"] == 1 and cache.stats()["corrupt"] == 0
        assert (root / "cache.db").read_bytes() == b"not a database"


class TestCacheWriteSpans:
    def test_one_span_per_write_and_none_when_warm(self, cache):
        suite = homogeneous_suite(n_instances=3, seed=21)
        methods = [get_method("heur-l"), get_method("heur-p")]
        with collect() as cold:
            run_sweep(suite, methods, BOUNDS, cache=cache)
        spans = cold.snapshot()["spans"]
        writes = sum(
            agg["count"] for key, agg in spans.items()
            if key.startswith("sweep.cache_write[")
        )
        assert writes == cache.puts == 6
        assert spans["sweep.cache_write[heur-l]"]["count"] == 3
        cache.reset()
        with collect() as warm:
            run_sweep(suite, methods, BOUNDS, cache=cache)
        assert cache.hits == 6 and cache.puts == 0
        assert not any(
            key.startswith("sweep.cache_write") for key in warm.snapshot()["spans"]
        )


class TestSingleStore:
    """The flat directory is the only store: no backend object, no
    backend choice, no migration, and nothing from the removed
    selection layer is left to reach."""

    def test_cache_owns_its_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.root == tmp_path
        assert not hasattr(cache, "backend")

    def test_root_is_the_only_parameter(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache()
        with pytest.raises(TypeError):
            ResultCache(tmp_path, backend="files")

    def test_backend_env_var_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        cache = ResultCache(tmp_path)
        cache.put_record("ab" * 32, {"v": 1})
        assert (tmp_path / f"{'ab' * 32}.json").is_file()
        assert not (tmp_path / "cache.db").exists()

    def test_selection_and_migration_names_are_gone(self):
        import repro.experiments.cache as cache_mod

        for name in ("SQLiteBackend", "CacheBackend", "make_backend",
                     "detect_backend_kind", "resolve_backend", "migrate_cache",
                     "payload_digest", "encode_payload", "decode_payload"):
            assert not hasattr(cache_mod, name), name
        assert not hasattr(ResultCache, "unit_key")

    def test_writes_count_no_per_backend_telemetry(self, cache):
        with collect() as tele:
            cache.put_record("ab" * 32, {"v": 1})
            cache.get_record("ab" * 32, method_name="heur-l")
            cache.get_record("cd" * 32, method_name="heur-l")
        counters = tele.snapshot()["counters"]
        assert counters["cache.hit[heur-l]"] == 1
        assert counters["cache.miss[heur-l]"] == 1
        assert not any(name.startswith("cache.backend.") for name in counters)


def small_sweep(root, jobs=None):
    """One small cached sweep; returns (SweepResult, ResultCache)."""
    cache = ResultCache(root)
    suite = homogeneous_suite(n_instances=3, seed=5)
    result = run_sweep(suite, [get_method("heur-l")], BOUNDS, cache=cache, jobs=jobs)
    return result, cache


class TestStoreBitIdentity:
    """Two runs of the same sweep write the same keys and the same
    entry bytes, whichever process or store handle wrote them."""

    def test_cold_sweeps_write_identical_stores(self, tmp_path):
        first, cache_a = small_sweep(tmp_path / "a")
        second, cache_b = small_sweep(tmp_path / "b")
        for name in SWEEP_ARRAYS:
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        entries_a = dict(cache_a.scan())
        assert entries_a == dict(cache_b.scan())
        assert len(entries_a) == 3

    def test_reopened_store_serves_the_warm_sweep(self, tmp_path):
        cold, cold_cache = small_sweep(tmp_path / "cache")
        before = dict(cold_cache.scan())
        warm, warm_cache = small_sweep(tmp_path / "cache")
        assert warm_cache.stats() == {
            "hits": 3, "misses": 0, "puts": 0, "corrupt": 0, "hit_rate": 1.0,
        }
        assert np.array_equal(cold.failure, warm.failure)
        assert np.array_equal(cold.solved, warm.solved)
        assert dict(warm_cache.scan()) == before

    def test_parallel_sweep_writes_the_serial_store(self, tmp_path):
        serial, serial_cache = small_sweep(tmp_path / "serial")
        parallel, parallel_cache = small_sweep(tmp_path / "parallel", jobs=2)
        assert np.array_equal(serial.failure, parallel.failure)
        assert dict(serial_cache.scan()) == dict(parallel_cache.scan())
        warm, warm_cache = small_sweep(tmp_path / "parallel", jobs=2)
        assert warm_cache.stats()["hits"] == 3
        assert np.array_equal(serial.failure, warm.failure)


#: Small enough for brute force, loose and tight enough that every
#: method solves some points and misses others.
REPLAY_BOUNDS = [(float("inf"), float("inf")), (150.0, 400.0), (60.0, 250.0)]


def method_sweep(root, name):
    """A cached sweep of registered method *name* on its first
    objective; returns (SweepResult, ResultCache)."""
    method = get_method(name)
    cache = ResultCache(root)
    suite = homogeneous_suite(n_instances=2, n_tasks=6, p=4, seed=5)
    result = run_sweep(suite, [method], REPLAY_BOUNDS, cache=cache,
                       objective=method.objectives[0])
    return result, cache


#: The registry as collected: every builtin method.
BUILTIN_METHODS = sorted(METHODS)


class TestEveryMethodThroughTheStore:
    """Every builtin method's records survive the file tree exactly:
    a warm sweep replays the cold arrays, and a damaged entry is
    recomputed into the same bytes."""

    @pytest.mark.parametrize("name", BUILTIN_METHODS)
    def test_warm_sweep_replays_cold_arrays(self, tmp_path, name):
        cold, cold_cache = method_sweep(tmp_path, name)
        assert cold_cache.stats()["puts"] == 2
        entries = dict(cold_cache.scan())
        warm, warm_cache = method_sweep(tmp_path, name)
        assert warm_cache.stats() == {
            "hits": 2, "misses": 0, "puts": 0, "corrupt": 0, "hit_rate": 1.0,
        }
        for array in SWEEP_ARRAYS:
            assert np.array_equal(getattr(cold, array), getattr(warm, array)), array
        assert dict(warm_cache.scan()) == entries

    @pytest.mark.parametrize("name", BUILTIN_METHODS)
    def test_damaged_entry_is_recomputed_into_the_same_bytes(self, tmp_path, name):
        cold, cold_cache = method_sweep(tmp_path, name)
        entries = dict(cold_cache.scan())
        damaged = sorted(entries)[0]
        plant_entry(cold_cache, damaged, entries[damaged][:20])
        again, cache = method_sweep(tmp_path, name)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "puts": 1, "corrupt": 1, "hit_rate": 0.5,
        }
        for array in SWEEP_ARRAYS:
            assert np.array_equal(getattr(cold, array), getattr(again, array)), array
        assert dict(cache.scan()) == entries


def _stress_record(index):
    """Deterministic per-key payload, so any torn write is detectable."""
    return {"value": index, "blob": f"{index:03d}" * 40}


def _stress_keys(n):
    return [f"{i:02d}" * 32 for i in range(n)]


def _stress_worker(root, worker_id, n_rounds, n_keys):
    """Hammer the shared store: overlapping puts and reads, asserting
    every record read back is complete and self-consistent."""
    cache = ResultCache(root)
    keys = _stress_keys(n_keys)
    for round_no in range(n_rounds):
        for i, key in enumerate(keys):
            cache.put_record(key, _stress_record(i))
            peek = (i * 7 + worker_id + round_no) % n_keys
            record = cache.get_record(keys[peek])
            if record is not None:
                expected = {"repro_cache": CACHE_FORMAT, **_stress_record(peek)}
                assert record == expected, f"torn record under {keys[peek]}"
    return cache.stats()


class TestConcurrentWriters:
    def test_multiprocess_stress_no_lost_or_torn_records(self, tmp_path):
        """N processes hammering one directory with overlapping
        puts/gets lose nothing, tear nothing, and report counters that
        reconcile."""
        n_workers, n_rounds, n_keys = 4, 3, 20
        root = tmp_path / "cache"
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_stress_worker, root, wid, n_rounds, n_keys)
                for wid in range(n_workers)
            ]
            stats = [f.result(timeout=120) for f in futures]

        per_worker_ops = n_rounds * n_keys
        assert sum(s["puts"] for s in stats) == n_workers * per_worker_ops
        assert sum(s["hits"] + s["misses"] for s in stats) == n_workers * per_worker_ops
        assert sum(s["corrupt"] for s in stats) == 0

        # No lost records: every key present, every payload canonical,
        # no temp file left behind.
        cache = ResultCache(root)
        entries = dict(cache.scan())
        assert len(entries) == n_keys
        for i, key in enumerate(_stress_keys(n_keys)):
            assert entries[key] == canonical(_stress_record(i))
        assert cache.storage_stats()["entries"] == n_keys
        assert not list(root.rglob("*.tmp"))


class TestCacheCLI:
    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    def test_stats_text_and_json(self, capsys, tmp_path):
        root = tmp_path / "cache"
        ResultCache(root).put_record("ab" * 32, {"v": 1})
        code, out = self.run_cli(capsys, "cache", "stats", "--cache-dir", str(root))
        assert code == 0
        assert "entries" in out and "bytes" in out and str(root) in out
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(root), "--json"
        )
        report = json.loads(out)
        assert report["entries"] == 1 and report["bytes"] > 0
        assert report["root"] == str(root)

    def test_vacuum_removes_leftovers_only(self, capsys, tmp_path, instance):
        root = tmp_path / "cache"
        run_sweep([instance], [get_method("heur-l")], BOUNDS, cache=ResultCache(root))
        (key,) = [k for k, _ in ResultCache(root).scan()]
        (root / "orphan.tmp").write_text("{half")
        code, out = self.run_cli(
            capsys, "cache", "vacuum", "--cache-dir", str(root), "--json"
        )
        assert code == 0
        assert json.loads(out) == {"removed_tmp": 1, "removed_runs": 0, "root": str(root)}
        assert sorted(p.name for p in root.iterdir()) == [f"{key}.json"]

    def test_env_fallback_and_missing_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            cli.main(["cache", "stats"])
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out = self.run_cli(capsys, "cache", "stats", "--json")
        assert code == 0 and json.loads(out)["entries"] == 0

    def test_stats_json_reports_only_store_totals(self, capsys, tmp_path):
        root = tmp_path / "cache"
        small_sweep(root)
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(root), "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"entries", "bytes", "run_records", "root"}
        assert report["entries"] == 3

    def test_vacuum_text_output(self, capsys, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "a.tmp").write_text("")
        code, out = self.run_cli(capsys, "cache", "vacuum", "--cache-dir", str(root))
        assert code == 0
        assert "removed_tmp  : 1" in out and "removed_runs : 0" in out
        assert "removed_dirs" not in out

    def test_migrate_subcommand_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cache", "migrate", "--to", "files",
                      "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
