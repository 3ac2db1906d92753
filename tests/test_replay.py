"""Run-level replay: a repeated ``scenario run`` served from its run record.

The first run with a cache directory writes ``<cache>/<key>.run``; an
identical later command replays it without planning, generating or
looking up a unit (:mod:`repro.experiments.replay`).  These tests pin
what a replay reports, what moves its key, how a damaged record heals,
and that a replay reports exactly what a unit-level warm run reports.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments import replay
from repro.experiments.cache import ResultCache
from repro.obs import diff_runs, load_run, render_diff
from repro.scenarios import SCENARIOS
from repro.solve.objectives import OBJECTIVES

#: The manifest fields a replay reproduces from its record.
REPLAYED = ("scenario", "seed", "n_instances", "objective", "min_reliability",
            "plan", "grid", "points", "series", "versions")


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


def run(tmp_path, *extra, name="section8-hom", tag="1", cache="cache") -> dict:
    """One ``scenario run`` in *tmp_path*; its manifest."""
    manifest = tmp_path / f"m{tag}.json"
    argv = ["scenario", "run", name, "--n-instances", "2", "--grid", "auto",
            "--grid-points", "3", "--runs-dir", str(tmp_path / "runs"),
            "--manifest", str(manifest), "--timestamp", f"T{tag}", *extra]
    if cache is not None:
        argv += ["--cache-dir", str(tmp_path / cache)]
    assert main(argv) == 0
    return json.loads(manifest.read_text())


def records(tmp_path, cache="cache") -> list:
    return sorted((tmp_path / cache).glob("*.run"))


def drop_records(tmp_path, cache="cache") -> None:
    for record in records(tmp_path, cache):
        record.unlink()


def test_second_identical_run_is_a_replay(tmp_path, capsys):
    cold = run(tmp_path, tag="1")
    assert "replayed_from" not in cold["cache"] and cold["cache"]["misses"] > 0
    assert len(records(tmp_path)) == 1
    capsys.readouterr()
    warm = run(tmp_path, tag="2")
    out = capsys.readouterr().out
    assert f"replaying run {cold['run_id']}" in out
    assert "solutions vs period bound:" in out
    # Today's keys, in the same order; the recorded ones unchanged.
    assert list(warm) == list(cold)
    assert {k: warm[k] for k in REPLAYED} == {k: cold[k] for k in REPLAYED}
    assert warm["cache"] == {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0,
                             "hit_rate": None, "replayed_from": cold["run_id"]}
    counters = warm["telemetry"]["counters"]
    assert counters and all(k.startswith("replay.") for k in counters), counters
    assert list(warm["seconds"]) == ["total"]
    assert warm["batch_units"] == 0 and warm["timings"] == {}
    # The ledger rows carry the results and claim no solve or lookup.
    units = load_run(warm["run_id"], tmp_path / "runs").units
    cold_units = load_run(cold["run_id"], tmp_path / "runs").units
    assert {u["source"] for u in units} == {"replay"}
    assert all(u["seconds"] is None and "batch_group" not in u for u in units)
    assert [(u["method"], u["instance"], u["solved"]) for u in units] == [
        (u["method"], u["instance"], u["solved"]) for u in cold_units
    ]


def test_replay_in_the_ledger_cli(tmp_path, capsys):
    cold = run(tmp_path, tag="1")
    warm = run(tmp_path, tag="2")
    runs_dir = str(tmp_path / "runs")
    capsys.readouterr()
    assert main(["runs", "show", warm["run_id"], "--runs-dir", runs_dir]) == 0
    report = capsys.readouterr().out
    assert f"- replayed from run `{cold['run_id']}`" in report
    assert "## Unit attribution" in report and "- replay: " in report
    assert "## Spans" in report
    assert "## Batch coverage" not in report  # no unit took a sweep path
    assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
    rows = {r["run_id"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows[cold["run_id"]]["replayed_from"] is None
    assert rows[warm["run_id"]]["replayed_from"] == cold["run_id"]
    # diff cold -> replay, both ways, text and JSON.
    for a, b in ((cold, warm), (warm, cold)):
        assert main(["runs", "diff", a["run_id"], b["run_id"],
                     "--runs-dir", runs_dir]) == 0
        assert "replayed_from" in capsys.readouterr().out
    diff = diff_runs(*(load_run(m["run_id"], runs_dir) for m in (cold, warm)))
    for record in diff["series"]["methods"].values():
        assert record["count"]["delta"] == 0
    assert diff["cache"]["replayed_from"] == {"a": None, "b": cold["run_id"],
                                              "delta": None}
    assert diff["cache"]["hits"]["b"] == 0
    assert "total" in diff["seconds"]
    render_diff(diff)


def test_key_ignores_where_a_run_writes_and_how_many_jobs(tmp_path):
    cold = run(tmp_path, tag="1")
    warm = run(tmp_path, "--jobs", "2", tag="2")
    assert warm["cache"]["replayed_from"] == cold["run_id"]


@pytest.mark.parametrize("extra", [
    ("--seed", "1"),
    ("--grid-points", "4"),
    ("--grid-axis", "latency"),
    ("--methods", "heur-l"),
    ("--max-latency", "900"),
    ("--objective", "latency", "--min-reliability", "0.9"),
])
def test_key_follows_result_bearing_arguments(tmp_path, extra):
    run(tmp_path, tag="1")
    other = run(tmp_path, *extra, tag="2")
    assert "replayed_from" not in other["cache"]
    assert len(records(tmp_path)) == 2


def test_spec_file_bytes_are_part_of_the_key(tmp_path, monkeypatch):
    from repro.io import dumps
    from repro.scenarios import get_scenario

    monkeypatch.chdir(tmp_path)
    spec = get_scenario("hot-spare").spec.with_(name="mine")
    path = tmp_path / "mine.json"
    path.write_text(dumps(spec))
    run(tmp_path, name="mine.json", tag="1")
    assert run(tmp_path, name="mine.json", tag="2")["cache"].get("replayed_from")
    path.write_text(dumps(spec.with_(K=2)))
    edited = run(tmp_path, name="mine.json", tag="3")
    assert "replayed_from" not in edited["cache"]


def test_no_cache_dir_no_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(tmp_path, tag="1", cache=None)
    second = run(tmp_path, tag="2", cache=None)
    assert second["cache"] is None
    assert not list(tmp_path.rglob("*.run"))


def test_env_cache_dir_replays(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    cold = run(tmp_path, tag="1", cache=None)
    warm = run(tmp_path, tag="2", cache=None)
    assert warm["cache"]["replayed_from"] == cold["run_id"]


@pytest.mark.parametrize("damage", [
    lambda text: text[: len(text) // 2],          # torn write
    lambda text: "garbage, not json {",            # garbage
    lambda text: json.dumps([1, 2, 3]),            # JSON, not a record
    lambda text: text.replace('"repro_cache": ', '"repro_cache": 9', 1),  # other format
    lambda text: text.replace('"plan": {', '"plan": null, "x": {', 1),     # wrong type
], ids=["torn", "garbage", "not-a-record", "other-format", "wrong-type"])
def test_damaged_record_is_a_miss_that_heals(tmp_path, damage):
    cold = run(tmp_path, tag="1")
    (record,) = records(tmp_path)
    record.write_text(damage(record.read_text()))
    warm = run(tmp_path, tag="2")
    # The unit-level path ran, every unit from the cache ...
    assert "replayed_from" not in warm["cache"]
    assert warm["cache"]["misses"] == 0 and warm["cache"]["hits"] > 0
    # A run record is not a unit: its damage counts no corrupt lookup.
    assert warm["cache"]["corrupt"] == 0
    assert warm["series"] == cold["series"]
    # ... and its completion rewrote the record.
    assert replay.read_record(record.parent, record.name[: -len(".run")]) is not None
    again = run(tmp_path, tag="3")
    assert again["cache"]["replayed_from"] == warm["run_id"]


def test_cache_stats_and_scan_keep_run_records_apart(tmp_path, capsys):
    run(tmp_path, tag="1")
    root = tmp_path / "cache"
    cache = ResultCache(root)
    units = sorted(root.glob("*.json"))
    assert [key for key, _ in cache.scan()] == [p.stem for p in units]
    stats = cache.storage_stats()
    assert stats["entries"] == len(units) > 0
    assert stats["run_records"] == 1
    assert stats["bytes"] == sum(p.stat().st_size for p in units)
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["run_records"] == 1
    # A unit-level warm run reads no record as a corrupt entry.
    drop_records(tmp_path)
    run(tmp_path, tag="2")
    warm = run(tmp_path, tag="3")
    assert warm["cache"]["replayed_from"]
    drop_records(tmp_path)
    warm = run(tmp_path, tag="4")
    assert warm["cache"]["corrupt"] == 0 and warm["cache"]["misses"] == 0


def test_brute_force_refusal_exits_before_any_work(tmp_path):
    with pytest.raises(SystemExit, match=r"brute-force: search space ~9\.67e\+08 "
                                         r"exceeds budget 2000000"):
        main(["scenario", "run", "section8-hom", "--methods", "brute-force",
              "--n-instances", "2", "--grid", "auto",
              "--cache-dir", str(tmp_path / "cache")])
    assert not (tmp_path / "cache").exists()


#: Every builtin scenario x objective but scaling-stress's energy cell,
#: which takes about 10 s cold at 2 instances (energy-greedy solves per
#: row on chains of up to 80 tasks) and replays through the same code.
CELLS = [
    (name, objective)
    for name in sorted(SCENARIOS)
    for objective in OBJECTIVES
    if (name, objective) != ("scaling-stress", "energy")
]


@pytest.mark.parametrize("name, objective", CELLS)
def test_replay_reports_what_a_unit_level_warm_run_reports(tmp_path, name, objective):
    extra = () if objective == "reliability" else ("--objective", objective,
                                                   "--min-reliability", "0.9")
    run(tmp_path, *extra, name=name, tag="1")
    drop_records(tmp_path)
    warm = run(tmp_path, *extra, name=name, tag="2")
    assert warm["cache"]["misses"] == 0 and "replayed_from" not in warm["cache"]
    replayed = run(tmp_path, *extra, name=name, tag="3")
    assert replayed["cache"]["replayed_from"] == warm["run_id"]
    for field in ("series", "grid", "plan", "points", "scenario"):
        assert replayed[field] == warm[field], field


def package_copy(tmp_path):
    """A copy of the package under *tmp_path*, and a function running
    ``python -m repro ARGS`` on that copy in *tmp_path* (its stdout)."""
    import repro

    src = tmp_path / "src"
    shutil.copytree(pathlib.Path(repro.__file__).parent, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
        ).stdout

    return src / "repro", cli


def test_editing_a_module_makes_the_next_run_resolve_every_unit(tmp_path):
    """In a copy of the package, a comment appended to any module moves
    the run key and every unit key (one source digest keys both), so
    the next run re-solves every unit; the run after it replays."""
    package, cli = package_copy(tmp_path)

    def cli_run(tag):
        cli("scenario", "run", "section8-hom", "--n-instances", "2", "--cache-dir", "cache",
            "--runs-dir", "runs", "--manifest", f"m{tag}.json")
        return json.loads((tmp_path / f"m{tag}.json").read_text())["cache"]

    cold = cli_run("cold")
    assert cold["misses"] > 0
    assert cli_run("replay")["replayed_from"]
    with open(package / "obs" / "telemetry.py", "a") as handle:
        handle.write("# a comment\n")
    edited = cli_run("edited")
    assert "replayed_from" not in edited
    assert edited["misses"] == cold["misses"] and edited["hits"] == 0
    assert cli_run("again")["replayed_from"]


@pytest.mark.parametrize("suffix, field", [
    (".json", "removed_entries"), (".run", "removed_runs"),
], ids=["entry", "record"])
def test_vacuum_after_an_edit_keeps_only_current_source(tmp_path, suffix, field):
    """Cold run, edit the CLI, rerun, vacuum: only the rerun's unit
    entries and run record remain, byte for byte and unrewritten.  The
    cold run's files, and files of either kind that are unstamped, of
    other source or torn, are removed with every ``*.tmp`` file."""
    package, cli = package_copy(tmp_path)
    run = ("scenario", "run", "section8-hom", "--n-instances", "2", "--cache-dir", "cache",
           "--runs-dir", "runs", "--manifest", "m.json")
    cache = tmp_path / "cache"

    def files():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()}

    cli(*run)
    cold = files()
    with open(package / "cli.py", "a") as handle:
        handle.write("# a comment\n")
    cli(*run)
    current = {name: state for name, state in files().items() if name not in cold}
    assert len(current) == len(cold)
    sample = next(json.loads(data) for name, (data, _) in current.items() if name.endswith(suffix))
    other, unstamped, torn = ("0" * 64, "1" * 64, "2" * 64)
    (cache / f"{other}{suffix}").write_text(json.dumps({**sample, "source": "0" * 64}))
    del sample["source"]
    (cache / f"{unstamped}{suffix}").write_text(json.dumps(sample))
    (cache / f"{torn}{suffix}").write_text("{half")
    (cache / "orphan.tmp").write_text("{half")

    report = json.loads(cli("cache", "vacuum", "--cache-dir", "cache", "--json"))
    n_entries = sum(name.endswith(".json") for name in cold)
    expected = {"removed_tmp": 1, "removed_entries": n_entries, "removed_runs": 1}
    expected[field] += 3
    assert report == {**expected, "root": "cache"}
    assert files() == current
    stats = json.loads(cli("cache", "stats", "--cache-dir", "cache", "--json"))
    assert (stats["entries"], stats["run_records"]) == (n_entries, 1)
