"""The observability layer: telemetry spans/counters and the run ledger
(deterministic artifact writer, list/show/diff inspector)."""

import json
import pickle

import pytest

from repro.cli import main
from repro.obs import (
    Telemetry,
    diff_runs,
    find_run,
    list_runs,
    load_run,
    render_diff,
    render_report,
    resolve_runs_dir,
    run_id_for,
    write_run,
)
from repro.obs import ledger as ledger_mod
from repro.obs import telemetry as obs


class TestTelemetry:
    def test_disabled_is_a_shared_noop(self):
        assert obs.active() is None
        # No collector installed: the same no-op span object every time,
        # and counters vanish without a trace.
        assert obs.span("x") is obs.span("y", label="z")
        with obs.span("x"):
            obs.counter("x.events", 3)
        assert obs.active() is None

    def test_collect_aggregates_and_restores(self):
        with obs.collect() as tele:
            with obs.span("phase", label="a"):
                pass
            with obs.span("phase", label="a"):
                pass
            obs.counter("widgets")
            obs.counter("widgets", 2)
            assert obs.active() is tele
        assert obs.active() is None
        assert tele.spans["phase[a]"]["count"] == 2
        assert tele.spans["phase[a]"]["seconds"] >= 0.0
        assert tele.counters["widgets"] == 3

    def test_collect_nests(self):
        with obs.collect() as outer:
            obs.counter("depth")
            with obs.collect() as inner:
                obs.counter("depth")
            assert obs.active() is outer
        assert outer.counters == {"depth": 1}
        assert inner.counters == {"depth": 1}

    def test_snapshot_merges_and_pickles(self):
        worker = Telemetry()
        worker.counter("cache.hit", 4, label="heur-l")
        with worker.span("sweep.unit", "heur-l"):
            pass
        snapshot = pickle.loads(pickle.dumps(worker.snapshot()))

        parent = Telemetry()
        parent.counter("cache.hit", 1, label="heur-l")
        parent.merge(snapshot)
        parent.merge(None)  # a worker that collected nothing
        assert parent.counters["cache.hit[heur-l]"] == 5
        assert parent.spans["sweep.unit[heur-l]"]["count"] == 1


def _manifest(objective_p50: float, sweep_seconds: float) -> dict:
    return {
        "command": "scenario-run",
        "scenario": {"name": "synthetic", "spec_hash": "ab" * 32},
        "objective": "reliability",
        "n_instances": 2,
        "batch_units": 2,
        "seconds": {"generate": 0.001, "sweep": sweep_seconds, "total": 0.5},
        "cache": {"hits": 0, "misses": 4, "puts": 4, "corrupt": 0, "hit_rate": 0.0},
        "series": {
            "heur-l": {
                "counts": [1, 2],
                "avg_failure": [0.5, 0.25],
                "objective_quantiles": {"p50": [0.5, objective_p50]},
            }
        },
    }


UNITS = [
    {"method": "heur-l", "instance": 0, "source": "batch", "solved": 2,
     "seconds": 0.01, "batch_group": 2},
    {"method": "heur-l", "instance": 1, "source": "worker", "solved": 1,
     "seconds": 0.02, "converged": False, "probes": 9},
]


class TestHashPins:
    """content_hash and run_id_for give the same digests wherever they
    are defined: no run_id or unit key moves with the module."""

    def test_content_hash_of_plain_payloads(self):
        from repro.io import content_hash
        from repro.util.hashing import content_hash as plain

        assert content_hash is plain
        assert content_hash({"b": [1, 2.5, "inf"], "a": None, "c": True}) == (
            "1ba3f1f04cd2abd7c7e8ccf1478ff758ccceb22aea3e045ab6fbdddac45a4c54"
        )
        assert content_hash(
            {"repro_cache": 5, "method": "heur-l"}, "ab" * 32, [[1.0, "inf"]]
        ) == "a15d716a956c3de66819b359aa1bcd1be43f3013103732dc435f26032a2eb229"
        assert content_hash([]) == (
            "c124efeb8d5edb82fb87c455298a254564c153997eb3fecc8f231616711c763e"
        )

    def test_content_hash_of_model_objects(self):
        from repro.core import Platform, TaskChain
        from repro.io import content_hash

        assert content_hash(TaskChain([1.0, 2.0], [1.0, 0.0])) == (
            "ac7380551dafff1ed3ab003dd01bd5e86591014363f175ed6f824d96f1e0baa4"
        )
        platform = Platform.homogeneous_platform(3, failure_rate=1e-6, max_replication=2)
        assert content_hash(platform) == (
            "cebb8368771fab0f191af090c940847d31b7aa2a4c65d7dfd7aaa7bc48e28839"
        )

    def test_run_ids(self):
        identity = {"command": "scenario-run", "seed": 0}
        assert run_id_for(identity, "20260808T120000Z") == "20260808T120000Z-5564bbb7a9b4"
        assert run_id_for({"x": 1}, "2026-08-08 12:00") == "2026-08-08-12:00-5134215cc7b8"


class TestLedgerWriter:
    def test_run_id_is_deterministic_and_content_addressed(self):
        identity = {"command": "scenario-run", "seed": 0}
        a = run_id_for(identity, "20260808T120000Z")
        assert a == run_id_for({"seed": 0, "command": "scenario-run"}, "20260808T120000Z")
        assert a.startswith("20260808T120000Z-")
        assert a != run_id_for(identity, "20260808T120001Z")
        assert a != run_id_for({"command": "scenario-run", "seed": 1}, "20260808T120000Z")
        with pytest.raises(ValueError):
            run_id_for(identity, "")

    def test_identical_inputs_produce_byte_identical_artifacts(self, tmp_path):
        """The determinism contract: same manifest + units + run_id in,
        same bytes out — across separate write_run calls."""
        run_id = run_id_for({"x": 1}, "20260808T120000Z")
        path_a = write_run(tmp_path / "a", run_id, _manifest(0.25, 0.1), UNITS)
        path_b = write_run(tmp_path / "b", run_id, _manifest(0.25, 0.1), UNITS)
        for name in ("manifest.json", "per_unit.jsonl", "report.md"):
            assert (path_a / name).read_bytes() == (path_b / name).read_bytes(), name
        # And a changed input changes the manifest bytes.
        path_c = write_run(tmp_path / "c", run_id, _manifest(0.5, 0.1), UNITS)
        assert (path_a / "manifest.json").read_bytes() != (path_c / "manifest.json").read_bytes()

    def test_interrupted_write_leaves_no_half_run(self, tmp_path, monkeypatch):
        """manifest.json lands last; a crash before it leaves a directory
        that list/find skip — and no stray temp files."""
        real = ledger_mod.write_atomic

        def failing(path, text):
            if path.name == "manifest.json":
                raise OSError("disk full")
            real(path, text)

        monkeypatch.setattr(ledger_mod, "write_atomic", failing)
        run_id = run_id_for({"x": 1}, "20260808T120000Z")
        with pytest.raises(OSError):
            write_run(tmp_path, run_id, _manifest(0.25, 0.1), UNITS)
        assert (tmp_path / run_id / "per_unit.jsonl").is_file()
        assert not (tmp_path / run_id / "manifest.json").exists()
        assert list_runs(tmp_path) == []
        with pytest.raises(FileNotFoundError):
            find_run(run_id, tmp_path)
        # The interrupted run completes on retry and surfaces normally.
        monkeypatch.setattr(ledger_mod, "write_atomic", real)
        write_run(tmp_path, run_id, _manifest(0.25, 0.1), UNITS)
        assert [row["run_id"] for row in list_runs(tmp_path)] == [run_id]

    def test_atomic_write_never_exposes_partial_content(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the old content intact (temp file
        + rename), not a truncated file."""
        target = tmp_path / "manifest.json"
        ledger_mod.write_atomic(target, "old content")

        def exploding_write(fd, data):
            raise OSError("interrupted")

        monkeypatch.setattr(ledger_mod.os, "write", exploding_write)
        with pytest.raises(OSError, match="interrupted"):
            ledger_mod.write_atomic(target, "new content")
        monkeypatch.undo()
        assert target.read_text() == "old content"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_write_creates_missing_parents(self, tmp_path):
        """The parent directories are made on the first write into them;
        the bytes are the text's UTF-8 encoding, large texts included."""
        target = tmp_path / "a" / "b" / "entry.json"
        text = "λ-" * 100_000
        ledger_mod.write_atomic(target, text)
        ledger_mod.write_atomic(target.with_name("next.json"), "x")
        assert target.read_bytes() == text.encode()
        assert sorted(p.name for p in target.parent.iterdir()) == ["entry.json", "next.json"]

    def test_find_run_prefix_matching(self, tmp_path):
        id_a = run_id_for({"x": 1}, "20260808T120000Z")
        id_b = run_id_for({"x": 2}, "20260809T120000Z")
        write_run(tmp_path, id_a, _manifest(0.25, 0.1))
        write_run(tmp_path, id_b, _manifest(0.25, 0.1))
        assert find_run(id_a, tmp_path) == id_a
        assert find_run("20260809", tmp_path) == id_b
        with pytest.raises(ValueError, match="ambiguous"):
            find_run("2026", tmp_path)
        with pytest.raises(FileNotFoundError):
            find_run("2027", tmp_path)

    def test_report_renders_attribution_and_convergence(self, tmp_path):
        run_id = run_id_for({"x": 1}, "20260808T120000Z")
        path = write_run(tmp_path, run_id, _manifest(0.25, 0.1), UNITS)
        report = (path / "report.md").read_text()
        assert run_id in report
        assert "- batch: 1 units" in report
        assert "- worker: 1 units" in report
        assert "0 converged, 1 budget-exhausted" in report
        # Batch coverage: one column per path a unit can take.
        assert "| method | batch | per-row | cache |" in report
        assert "| heur-l | 1 | 1 | 0 |" in report
        # render_report is a pure function of its inputs.
        loaded = load_run(run_id, tmp_path)
        assert render_report(loaded.manifest, loaded.units) == report

    def test_resolve_runs_dir_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
        assert resolve_runs_dir(None) == tmp_path / "elsewhere"
        assert resolve_runs_dir(tmp_path) == tmp_path
        monkeypatch.delenv("REPRO_RUNS_DIR")
        assert str(resolve_runs_dir(None)) == "runs"


class TestDiff:
    def _two_runs(self, tmp_path):
        id_a = run_id_for({"leg": "cold"}, "20260808T120000Z")
        id_b = run_id_for({"leg": "warm"}, "20260808T120100Z")
        write_run(tmp_path, id_a, _manifest(0.25, 0.4), UNITS)
        warm_units = [dict(u, source="cache", seconds=None) for u in UNITS]
        write_run(tmp_path, id_b, _manifest(0.75, 0.1), warm_units)
        return load_run(id_a, tmp_path), load_run(id_b, tmp_path)

    def test_diff_reports_objective_timing_cache_batch_deltas(self, tmp_path):
        a, b = self._two_runs(tmp_path)
        diff = diff_runs(a, b)
        method = diff["series"]["methods"]["heur-l"]
        assert method["objective_p50"]["delta"] == pytest.approx(0.5)
        assert method["count"]["delta"] == 0
        assert diff["seconds"]["sweep"]["delta"] == pytest.approx(-0.3)
        assert diff["cache"]["hits"]["delta"] == 0
        assert diff["batch"]["sources"]["cache"] == {"a": 0, "b": 2, "delta": 2}
        assert diff["batch"]["sources"]["batch"] == {"a": 1, "b": 0, "delta": -1}
        text = render_diff(diff)
        assert "objective (final sweep point" in text
        assert "units[cache]" in text and "+2" in text

    def test_diff_handles_disjoint_methods(self, tmp_path):
        a, b = self._two_runs(tmp_path)
        manifest = dict(b.manifest)
        manifest["series"] = {"heur-p": manifest["series"]["heur-l"]}
        other = ledger_mod.RunRecord(
            run_id=b.run_id, path=b.path, manifest=manifest,
            units=b.units, report=b.report,
        )
        diff = diff_runs(a, other)
        assert diff["series"]["only_a"] == ["heur-l"]
        assert diff["series"]["only_b"] == ["heur-p"]
        assert diff["series"]["methods"] == {}


class TestRunsCLI:
    def _seed_ledger(self, runs_dir):
        id_a = run_id_for({"leg": "cold"}, "20260808T120000Z")
        id_b = run_id_for({"leg": "warm"}, "20260808T120100Z")
        write_run(runs_dir, id_a, _manifest(0.25, 0.4), UNITS)
        write_run(runs_dir, id_b, _manifest(0.75, 0.1),
                  [dict(u, source="cache", seconds=None) for u in UNITS])
        return id_a, id_b

    def test_runs_list_show_diff(self, tmp_path, capsys):
        runs_dir = tmp_path / "ledger"
        id_a, id_b = self._seed_ledger(runs_dir)

        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert id_a in out and id_b in out and "scenario-run" in out

        assert main(["runs", "show", id_a[:17], "--runs-dir", str(runs_dir)]) == 0
        assert f"# repro run `{id_a}`" in capsys.readouterr().out

        assert main(["runs", "show", id_a, "--json",
                     "--runs-dir", str(runs_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == id_a

        assert main(["runs", "diff", id_a, id_b,
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert f"diff {id_a} -> {id_b}" in out and "units[cache]" in out

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "none")]) == 0
        assert "no runs under" in capsys.readouterr().out

    def test_runs_show_unknown_and_ambiguous(self, tmp_path):
        runs_dir = tmp_path / "ledger"
        self._seed_ledger(runs_dir)
        with pytest.raises(SystemExit, match="no run"):
            main(["runs", "show", "zzz", "--runs-dir", str(runs_dir)])
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["runs", "diff", "2026", "2026", "--runs-dir", str(runs_dir)])


class TestEndToEndLedger:
    def test_scenario_run_writes_a_complete_ledger_run(self, tmp_path, capsys):
        """Acceptance: every scenario run produces runs/<run_id>/ with a
        manifest, per-unit attribution, and a report."""
        runs_dir = tmp_path / "runs"
        assert main([
            "scenario", "run", "section8-hom", "--n-instances", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(runs_dir),
            "--timestamp", "20260808T130000Z",
            "--manifest", str(tmp_path / "m.json"),
        ]) == 0
        out = capsys.readouterr().out
        (row,) = list_runs(runs_dir)
        assert row["run_id"] in out
        record = load_run(row["run_id"], runs_dir)
        manifest = record.manifest
        assert manifest["command"] == "scenario-run"
        assert manifest["timestamp"] == "20260808T130000Z"
        assert set(manifest["seconds"]) >= {"generate", "grid", "sweep", "total"}
        assert any(key.startswith("solve[") for key in manifest["seconds"])
        assert manifest["cache"]["hit_rate"] == 0.0
        assert manifest["telemetry"]["counters"]
        assert {"cache_lookup", "total"} <= set(manifest["timings"])
        # One per-unit line per (method, instance) work unit, sorted by
        # plan order then instance, each attributed to a source.
        selected = manifest["plan"]["selected"]
        assert [u["method"] for u in record.units] == [
            m for m in selected for _ in range(2)
        ]
        assert all(u["source"] in {"batch", "parent", "worker", "cache"}
                   for u in record.units)
        # The legacy manifest carries the same run_id.
        legacy = json.loads((tmp_path / "m.json").read_text())
        assert legacy["run_id"] == row["run_id"]

    def test_warm_rerun_diffs_cleanly(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        argv = [
            "scenario", "run", "section8-hom", "--n-instances", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(runs_dir),
            "--manifest", str(tmp_path / "m.json"),
        ]
        assert main(argv + ["--timestamp", "20260808T130000Z"]) == 0
        # Without its run record the rerun is a unit-level warm run,
        # not a replay.
        for record in (tmp_path / "cache").glob("*.run"):
            record.unlink()
        assert main(argv + ["--timestamp", "20260808T130100Z"]) == 0
        capsys.readouterr()
        rows = list_runs(runs_dir)
        assert len(rows) == 2
        a, b = (load_run(r["run_id"], runs_dir) for r in rows)
        diff = diff_runs(a, b)
        # Same workload, warm cache: objectives identical, everything
        # served from cache on the second leg.
        for record in diff["series"]["methods"].values():
            assert record["count"]["delta"] == 0
            assert record["objective_p50"]["delta"] in (0, None)
        assert diff["cache"]["hits"]["b"] > 0
        assert diff["cache"]["misses"]["b"] == 0
        assert diff["batch"]["sources"]["cache"]["b"] == len(b.units)
