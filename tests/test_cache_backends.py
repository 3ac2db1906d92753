"""The pluggable cache storage layer: backend selection, cross-backend
bit-identity, migration round-trips, the SQLite backend's concurrency
contract (multiprocess stress), and the ``repro cache`` CLI."""

import json
import pickle
import sqlite3
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import cli
from repro.experiments import ResultCache, get_method, homogeneous_suite, run_sweep
from repro.experiments.cache import (
    CACHE_FORMAT,
    FileTreeBackend,
    SQLiteBackend,
    migrate_cache,
    resolve_backend,
)
from repro.experiments.cache.backend import (
    detect_backend_kind,
    encode_payload,
    make_backend,
)
from repro.obs import collect

BOUNDS = [(100.0, 750.0), (300.0, 750.0)]


def scan_dict(backend):
    return dict(backend.scan())


def sweep(root, backend=None, jobs=None):
    """One small cached sweep; returns (SweepResult, ResultCache)."""
    cache = ResultCache(root, backend=backend)
    suite = homogeneous_suite(n_instances=3, seed=5)
    result = run_sweep(suite, [get_method("heur-l")], BOUNDS, cache=cache, jobs=jobs)
    return result, cache


class TestBackendSelection:
    def test_default_is_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        assert ResultCache(tmp_path).backend.kind == "files"

    def test_env_selects_sqlite_for_fresh_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        cache = ResultCache(tmp_path)
        assert cache.backend.kind == "sqlite"
        assert cache.root == tmp_path

    def test_env_rejects_unknown_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "shelve")
        with pytest.raises(ValueError, match="unknown cache backend"):
            ResultCache(tmp_path)

    def test_on_disk_store_outranks_env(self, tmp_path, monkeypatch):
        """An existing store keeps its backend: flipping the env var
        must never silently cold-start a warm cache."""
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        files = ResultCache(tmp_path)
        files.put_record("ab" * 32, {"v": 1})
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        again = ResultCache(tmp_path)
        assert again.backend.kind == "files"
        assert again.get_record("ab" * 32) is not None

    def test_cache_db_detected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        ResultCache(tmp_path, backend="sqlite").put_record("ab" * 32, {"v": 1})
        assert detect_backend_kind(tmp_path) == "sqlite"
        assert ResultCache(tmp_path).backend.kind == "sqlite"

    def test_explicit_backend_outranks_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        assert ResultCache(tmp_path, backend="files").backend.kind == "files"

    def test_backend_instance_passthrough(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "store")
        cache = ResultCache(backend=backend)
        assert cache.backend is backend
        assert cache.root == tmp_path / "store"

    def test_rootless_construction_rejected(self):
        with pytest.raises(TypeError, match="root directory"):
            ResultCache()
        with pytest.raises(TypeError, match="root directory"):
            ResultCache(backend="sqlite")

    def test_resolve_backend_explicit_kind(self, tmp_path):
        assert resolve_backend(tmp_path, "sqlite").kind == "sqlite"
        with pytest.raises(ValueError, match="unknown cache backend"):
            make_backend("dbm", tmp_path)


class TestCrossBackendBitIdentity:
    """The acceptance criterion: the SQLite backend produces
    bit-identical SweepResult series, cache keys, and record payloads
    to the file backend."""

    def test_cold_sweeps_write_identical_stores(self, tmp_path):
        result_f, cache_f = sweep(tmp_path / "files", "files")
        result_s, cache_s = sweep(tmp_path / "sqlite", "sqlite")
        assert np.array_equal(result_f.solved, result_s.solved)
        assert np.array_equal(result_f.failure, result_s.failure)
        assert np.array_equal(
            result_f.objective_values, result_s.objective_values, equal_nan=True
        )
        entries_f = scan_dict(cache_f.backend)
        entries_s = scan_dict(cache_s.backend)
        assert entries_f.keys() == entries_s.keys()  # identical cache keys
        assert entries_f == entries_s  # identical payload bytes
        assert len(entries_f) == 3

    def test_warm_sweep_on_sqlite_matches_files(self, tmp_path):
        cold_f, _ = sweep(tmp_path / "files", "files")
        _, cache_s = sweep(tmp_path / "sqlite", "sqlite")
        warm_s, warm_cache = sweep(tmp_path / "sqlite")  # auto-detected
        assert warm_cache.backend.kind == "sqlite"
        assert warm_cache.stats()["hits"] == 3
        assert warm_cache.stats()["misses"] == 0
        assert np.array_equal(cold_f.failure, warm_s.failure)
        assert np.array_equal(cold_f.solved, warm_s.solved)

    def test_parallel_sweep_with_sqlite_cache(self, tmp_path):
        """Worker fan-out over a SQLite-cached sweep: handles never
        cross the pool boundary, results stay bit-identical."""
        serial, _ = sweep(tmp_path / "a", "sqlite")
        parallel, cache = sweep(tmp_path / "b", "sqlite", jobs=2)
        assert np.array_equal(serial.failure, parallel.failure)
        warm, warm_cache = sweep(tmp_path / "b", jobs=2)
        assert warm_cache.stats()["hits"] == 3
        assert np.array_equal(serial.failure, warm.failure)


class TestMigration:
    def test_round_trip_is_byte_identical(self, tmp_path):
        root = tmp_path / "cache"
        _, cache = sweep(root, "files")
        cache.put_record("ab" * 32, {"kind": "note", "period": 4.0})
        original = scan_dict(cache.backend)

        report = migrate_cache(root, to="sqlite")
        assert report["entries"] == report["verified"] == len(original)
        assert detect_backend_kind(root) == "sqlite"
        assert not list(root.glob("??/*.json"))  # source consumed
        assert scan_dict(SQLiteBackend(root)) == original

        report = migrate_cache(root, to="files")
        assert report["verified"] == len(original)
        assert detect_backend_kind(root) == "files"
        assert not (root / "cache.db").exists()
        assert scan_dict(FileTreeBackend(root)) == original

    def test_migrated_store_serves_warm_sweeps(self, tmp_path):
        root = tmp_path / "cache"
        cold, _ = sweep(root, "files")
        migrate_cache(root, to="sqlite")
        warm, cache = sweep(root)
        assert cache.backend.kind == "sqlite"
        assert cache.stats() == {
            "hits": 3, "misses": 0, "puts": 0, "corrupt": 0, "hit_rate": 1.0,
        }
        assert np.array_equal(cold.failure, warm.failure)

    def test_keep_source_leaves_backup(self, tmp_path):
        root = tmp_path / "cache"
        _, cache = sweep(root, "files")
        original = scan_dict(cache.backend)
        report = migrate_cache(root, to="sqlite", keep_source=True)
        assert report["source_removed"] is False
        assert scan_dict(FileTreeBackend(root)) == original
        assert scan_dict(SQLiteBackend(root)) == original

    def test_rejects_empty_and_noop_migrations(self, tmp_path):
        with pytest.raises(ValueError, match="no cache store"):
            migrate_cache(tmp_path / "nowhere", to="sqlite")
        root = tmp_path / "cache"
        sweep(root, "files")
        with pytest.raises(ValueError, match="already uses"):
            migrate_cache(root, to="files")
        with pytest.raises(ValueError, match="unknown migration target"):
            migrate_cache(root, to="dbm")


class TestSQLiteBackend:
    def test_scan_is_key_sorted(self, tmp_path):
        backend = SQLiteBackend(tmp_path)
        for key in ("cd" * 32, "ab" * 32, "ef" * 32):
            backend.store(key, {"k": key})
        keys = [key for key, _ in backend.scan()]
        assert keys == sorted(keys)

    def test_pickling_drops_the_connection(self, tmp_path):
        backend = SQLiteBackend(tmp_path)
        backend.store("ab" * 32, {"v": 1})
        assert backend._conn is not None
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._conn is None and clone._pid is None
        assert clone.load("ab" * 32) == {"v": 1}  # reopens lazily

    def test_unknown_schema_version_refuses(self, tmp_path):
        backend = SQLiteBackend(tmp_path)
        backend.store("ab" * 32, {"v": 1})
        conn = backend.connection()
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("UPDATE schema_version SET version = 99")
        conn.execute("COMMIT")
        backend.close()
        with pytest.raises(ValueError, match="schema version 99"):
            SQLiteBackend(tmp_path).connection()

    def test_storage_stats_never_create_the_db(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "fresh")
        stats = backend.storage_stats()
        assert stats == {
            "backend": "sqlite", "entries": 0, "bytes": 0, "schema_version": None,
        }
        assert not (tmp_path / "fresh" / "cache.db").exists()

    def test_per_backend_telemetry_counters(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sqlite")
        with collect() as tele:
            cache.put_record("ab" * 32, {"v": 1})
            cache.get_record("ab" * 32)
            cache.get_record("cd" * 32)
            cache.backend.store_text("ef" * 32, "{torn")
            cache.get_record("ef" * 32)
        counters = tele.snapshot()["counters"]
        assert counters["cache.backend.put[sqlite]"] == 1
        assert counters["cache.backend.hit[sqlite]"] == 1
        assert counters["cache.backend.miss[sqlite]"] == 1
        assert counters["cache.backend.corrupt[sqlite]"] == 1


def _stress_record(index):
    """Deterministic per-key payload, so any torn write is detectable."""
    return {"value": index, "blob": f"{index:03d}" * 40}


def _stress_keys(n):
    return [f"{i:02d}" * 32 for i in range(n)]


def _stress_worker(root, worker_id, n_rounds, n_keys):
    """Hammer the shared store: overlapping puts and reads, asserting
    every record read back is complete and self-consistent."""
    cache = ResultCache(root, backend="sqlite")
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
        """The fleet-safety criterion: N processes hammering one
        ``cache.db`` with overlapping puts/gets lose nothing, tear
        nothing, and report counters that reconcile."""
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

        # No lost records: every key present, every payload canonical.
        backend = SQLiteBackend(root)
        entries = scan_dict(backend)
        assert len(entries) == n_keys
        for i, key in enumerate(_stress_keys(n_keys)):
            expected = {"repro_cache": CACHE_FORMAT, **_stress_record(i)}
            assert entries[key] == encode_payload(expected)
        assert backend.storage_stats()["entries"] == n_keys


class TestCacheCLI:
    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    def test_stats_text_and_json(self, capsys, tmp_path):
        root = tmp_path / "cache"
        ResultCache(root, backend="sqlite").put_record("ab" * 32, {"v": 1})
        code, out = self.run_cli(capsys, "cache", "stats", "--cache-dir", str(root))
        assert code == 0
        assert "backend" in out and "sqlite" in out and "entries" in out
        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(root), "--json"
        )
        report = json.loads(out)
        assert report["entries"] == 1 and report["detected"] == "sqlite"
        assert report["schema_version"] == 1

    def test_migrate_and_vacuum(self, capsys, tmp_path):
        root = tmp_path / "cache"
        sweep(root, "files")
        code, out = self.run_cli(
            capsys, "cache", "migrate", "--to", "sqlite", "--cache-dir", str(root)
        )
        assert code == 0
        assert "migrated 3 entries files -> sqlite" in out
        assert "verified 3 row digests" in out
        code, out = self.run_cli(
            capsys, "cache", "vacuum", "--cache-dir", str(root), "--json"
        )
        assert code == 0
        assert json.loads(out)["backend"] == "sqlite"

    def test_env_fallback_and_missing_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="no cache directory"):
            cli.main(["cache", "stats"])
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out = self.run_cli(capsys, "cache", "stats", "--json")
        assert code == 0 and json.loads(out)["entries"] == 0

    def test_noop_migration_exits_nonzero(self, capsys, tmp_path):
        sweep(tmp_path / "cache", "files")
        with pytest.raises(SystemExit, match="already uses"):
            cli.main(
                ["cache", "migrate", "--to", "files",
                 "--cache-dir", str(tmp_path / "cache")]
            )


class TestSchemaGuardThroughSqlite3:
    def test_wal_mode_is_active(self, tmp_path):
        backend = SQLiteBackend(tmp_path)
        backend.store("ab" * 32, {"v": 1})
        mode = backend.connection().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        backend.close()
        # The db file is self-describing: a plain sqlite3 connection
        # sees the same rows the backend wrote.
        with sqlite3.connect(tmp_path / "cache.db") as conn:
            rows = conn.execute("SELECT key, payload FROM entries").fetchall()
        assert rows == [("ab" * 32, encode_payload({"v": 1}))]
