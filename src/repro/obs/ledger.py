"""Run-addressed artifact ledger: every run leaves a diffable record.

Every ``repro scenario run`` / ``repro experiment`` invocation
records itself through the CLI's one run recorder, which writes one run
directory (and copies the manifest to ``--manifest``)::

    <runs_dir>/<run_id>/
        manifest.json     # the run's self-describing record
        per_unit.jsonl    # one JSON line per work unit (attribution)
        report.md         # deterministic human-readable summary

following the manifest-first, per-unit-jsonl discipline of evaluation
harnesses built around reproducible runs: the manifest makes a run
*re-runnable* (scenario spec hash, seed, methods, grid), the per-unit
lines make it *attributable* (which units were batch-served, which
fell back per row, which came from cache, what each cost), and the
report makes it *explainable* without opening JSON.

Determinism contract
--------------------
* ``run_id`` is derived by :func:`run_id_for` from a content hash of
  the run's identity payload plus a **caller-supplied** timestamp —
  same identity and timestamp in, same run_id out (nothing here reads
  the clock);
* :func:`write_run` serializes with stable key ordering and trailing
  newlines, so identical inputs produce **byte-identical** artifacts;
* every file is written atomically (temp file + ``os.replace``) and
  ``manifest.json`` is written *last*, so a run directory that has a
  manifest is complete — interrupted writes leave no half-runs that
  :func:`list_runs` would surface.

Environment
-----------
``REPRO_RUNS_DIR``
    Default ledger directory when callers pass ``None`` (falls back to
    ``./runs``).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import tempfile
import threading
from typing import Any, Iterable, NamedTuple, Sequence

from repro.util.hashing import content_hash

__all__ = [
    "DEFAULT_RUNS_DIR",
    "RunRecord",
    "diff_runs",
    "find_run",
    "list_runs",
    "load_run",
    "render_diff",
    "render_report",
    "resolve_runs_dir",
    "run_id_for",
    "write_atomic",
    "write_run",
]

#: Fallback ledger directory (relative to the working directory).
DEFAULT_RUNS_DIR = "runs"

#: Hex digits of the identity hash kept in the run_id.
_ID_HASH_LEN = 12

#: run_id shape: sanitized timestamp + "-" + identity-hash prefix.
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9T:.Z_-]+-[0-9a-f]{%d}$" % _ID_HASH_LEN)


def resolve_runs_dir(
    runs_dir: "str | os.PathLike[str] | None" = None,
) -> pathlib.Path:
    """Normalize a ledger directory argument.

    ``None`` falls back to ``$REPRO_RUNS_DIR``, then to
    :data:`DEFAULT_RUNS_DIR`.  The directory is *not* created here —
    only :func:`write_run` writes.
    """
    if runs_dir is None:
        runs_dir = os.environ.get("REPRO_RUNS_DIR") or DEFAULT_RUNS_DIR
    return pathlib.Path(runs_dir)


def run_id_for(identity: Any, timestamp: str) -> str:
    """Derive a run's ledger address.

    Parameters
    ----------
    identity:
        JSON-able payload of the run's identifying (non-volatile)
        fields — command, scenario spec hash, seed, methods, grid,
        objective.  Hashed via :func:`repro.util.hashing.content_hash`, so equal
        content gives equal ids across processes and machines.
    timestamp:
        Caller-supplied wall-clock tag (e.g. ``20260808T093000Z``).
        Part of the id *and* of the hash, so two runs of the same
        workload at different times get distinct, chronologically
        sorting directories — while tests that pin the timestamp get
        fully deterministic ids.
    """
    if not timestamp:
        raise ValueError("timestamp must be a non-empty string")
    # Keep ids filesystem- and shell-safe whatever the caller formats.
    tag = re.sub(r"[^A-Za-z0-9T:.Z_-]", "-", str(timestamp))
    return f"{tag}-{content_hash(identity, tag)[:_ID_HASH_LEN]}"


def write_atomic(path: pathlib.Path, text: str) -> None:
    """Write *text* via a sibling temp file + ``os.replace``.

    Readers never observe a partial file: either the old content (or
    absence) or the complete new content.  The temp file is opened
    ``O_CREAT | O_EXCL`` (``tempfile.mkstemp``), given the mode a plain
    ``open`` would create (``0o666`` less the umask, not mkstemp's
    ``0o600``, so a shared cache directory stays readable) and written
    as UTF-8 bytes; the parent directory is created only when it is
    missing.
    This is the one sanctioned file-write primitive of the artifact
    layers — the ``IO001`` lint rule (:mod:`repro.analysis.atomicwrite`)
    flags raw writes there.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            os.fchmod(fd, _new_file_mode())
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Serializes :func:`_new_file_mode`'s set-and-restore of the umask, so
#: concurrent writers never restore each other's temporary value.
_UMASK_LOCK = threading.Lock()


def _new_file_mode() -> int:
    """The mode ``open`` gives a new file: ``0o666`` less the umask.

    The umask can only be read by setting it; the restrictive value in
    between never widens what a concurrent file creation would get.
    """
    with _UMASK_LOCK:
        umask = os.umask(0o077)
        os.umask(umask)
    return 0o666 & ~umask


def _manifest_bytes(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _per_unit_bytes(per_unit: "Sequence[dict]") -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in per_unit)


def write_run(
    runs_dir: "str | os.PathLike[str] | None",
    run_id: str,
    manifest: dict,
    per_unit: "Sequence[dict]" = (),
) -> pathlib.Path:
    """Write one complete run directory; return its path.

    The manifest gains a ``run_id`` field (callers need not thread it
    through themselves), and ``report.md`` is its
    :func:`render_report`.  Serialization is deterministic — sorted
    keys, one JSON object per ``per_unit.jsonl`` line, trailing
    newlines — so identical inputs yield byte-identical artifacts.
    ``manifest.json`` lands last: its presence marks the run complete.
    """
    root = resolve_runs_dir(runs_dir) / run_id
    manifest = {**manifest, "run_id": run_id}
    write_atomic(root / "per_unit.jsonl", _per_unit_bytes(per_unit))
    write_atomic(root / "report.md", render_report(manifest, per_unit))
    write_atomic(root / "manifest.json", _manifest_bytes(manifest))
    return root


class RunRecord(NamedTuple):
    """One loaded ledger run (a named tuple: importing :mod:`dataclasses`
    would cost a replayed run more than its own work)."""

    run_id: str
    path: pathlib.Path
    manifest: dict
    units: "tuple[dict, ...]"
    report: str

    def unit_sources(self) -> dict[str, int]:
        """Histogram of per-unit ``source`` attribution (batch/cache/...)."""
        out: dict[str, int] = {}
        for row in self.units:
            source = str(row.get("source", "?"))
            out[source] = out.get(source, 0) + 1
        return out


def list_runs(
    runs_dir: "str | os.PathLike[str] | None" = None,
) -> "list[dict]":
    """Summaries of every complete run under the ledger, oldest first.

    A directory without a readable ``manifest.json`` is an interrupted
    (or foreign) write and is skipped.  Each summary carries the
    fields the ``repro runs list`` table prints; the full record comes
    from :func:`load_run`.
    """
    root = resolve_runs_dir(runs_dir)
    if not root.is_dir():
        return []
    summaries = []
    for entry in sorted(root.iterdir()):
        manifest_path = entry / "manifest.json"
        if not entry.is_dir() or not manifest_path.is_file():
            continue
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        seconds = manifest.get("seconds")
        if isinstance(seconds, dict):
            seconds = seconds.get("total")
        cache = manifest.get("cache") or {}
        scenarios, n_instances = _workload(manifest)
        names = [s.get("name") if isinstance(s, dict) else s for s in scenarios]
        names = list(dict.fromkeys(name for name in names if name))
        summaries.append(
            {
                "run_id": manifest.get("run_id", entry.name),
                "command": manifest.get("command"),
                "scenario": ", ".join(map(str, names)) or None,
                "objective": manifest.get("objective"),
                "methods": sorted(manifest.get("series") or {}),
                "n_instances": n_instances,
                "seconds": seconds,
                "cache_hits": cache.get("hits"),
                "cache_misses": cache.get("misses"),
                "batch_units": manifest.get("batch_units"),
                "replayed_from": cache.get("replayed_from"),
            }
        )
    return summaries


def _workload(manifest: dict) -> "tuple[list, Any]":
    """A run's scenario records and instance count.

    ``scenario run`` manifests carry both at the top level.
    ``experiment`` manifests nest them per experiment under
    ``runs[*]``: their distinct scenarios, in run order, and their
    instance count stand in (a list when the experiments differ).
    """
    if manifest.get("scenario") is not None:
        return [manifest["scenario"]], manifest.get("n_instances")
    runs = [run for run in manifest.get("runs") or () if isinstance(run, dict)]
    scenarios = {
        (s.get("name"), s.get("spec_hash")): s
        for s in (run.get("scenario") for run in runs)
        if isinstance(s, dict) and s.get("name")
    }
    counts = list(dict.fromkeys(
        run["n_instances"] for run in runs if run.get("n_instances") is not None
    ))
    return list(scenarios.values()), counts[0] if len(counts) == 1 else counts or None


def find_run(
    token: str, runs_dir: "str | os.PathLike[str] | None" = None
) -> str:
    """Resolve a run_id or unique run_id prefix to a full run_id."""
    root = resolve_runs_dir(runs_dir)
    if (root / token / "manifest.json").is_file():
        return token
    matches = [
        entry.name
        for entry in (sorted(root.iterdir()) if root.is_dir() else [])
        if entry.name.startswith(token) and (entry / "manifest.json").is_file()
    ]
    if not matches:
        raise FileNotFoundError(
            f"no run {token!r} under {root} (see 'repro runs list')"
        )
    if len(matches) > 1:
        raise ValueError(
            f"run prefix {token!r} is ambiguous under {root}: {matches}"
        )
    return matches[0]


def load_run(
    token: str, runs_dir: "str | os.PathLike[str] | None" = None
) -> RunRecord:
    """Load one run (by id or unique prefix) from the ledger."""
    root = resolve_runs_dir(runs_dir)
    run_id = find_run(token, root)
    path = root / run_id
    manifest = json.loads((path / "manifest.json").read_text())
    units: list[dict] = []
    jsonl = path / "per_unit.jsonl"
    if jsonl.is_file():
        for line in jsonl.read_text().splitlines():
            if line.strip():
                units.append(json.loads(line))
    report_path = path / "report.md"
    report = report_path.read_text() if report_path.is_file() else ""
    return RunRecord(
        run_id=run_id, path=path, manifest=manifest,
        units=tuple(units), report=report,
    )


# -- diffing --------------------------------------------------------------


def _series_last(series: dict, key: str) -> "dict[str, float | None]":
    """Final-sweep-point value of one per-method series list."""
    out: dict[str, "float | None"] = {}
    for method, record in (series or {}).items():
        values = record.get(key)
        out[method] = values[-1] if values else None
    return out


def _delta(a: Any, b: Any) -> "float | None":
    """``b - a`` for two numbers; ``None`` for anything else (a missing
    value, or the run_id a replay names)."""
    numbers = all(isinstance(v, (int, float)) for v in (a, b))
    return b - a if numbers else None


def diff_runs(a: RunRecord, b: RunRecord) -> dict:
    """Structured deltas between two ledger runs (``b`` minus ``a``).

    Sections — each present only when both runs carry the data:

    * ``series`` — per-method solved-count and achieved-objective
      (p50, final sweep point) deltas, plus methods present in only
      one run;
    * ``seconds`` — phase-timing deltas for every phase both runs
      timed;
    * ``cache`` — hit/miss/put/corrupt (and hit_rate) deltas, and the
      run a replay replays (``replayed_from``, no delta);
    * ``batch`` — batch-served unit count delta plus the per-unit
      ``source`` attribution histograms and their delta — how serving
      moved between kernels, cache, parent, and workers.
    """
    out: dict[str, Any] = {
        "a": a.run_id,
        "b": b.run_id,
        "command": {"a": a.manifest.get("command"), "b": b.manifest.get("command")},
    }

    series_a = a.manifest.get("series") or {}
    series_b = b.manifest.get("series") or {}
    if series_a or series_b:
        shared = sorted(set(series_a) & set(series_b))
        methods: dict[str, Any] = {}
        for name in shared:
            counts_a = _series_last(series_a, "counts").get(name)
            counts_b = _series_last(series_b, "counts").get(name)
            p50_a = ((series_a[name].get("objective_quantiles") or {}).get("p50") or [None])[-1]
            p50_b = ((series_b[name].get("objective_quantiles") or {}).get("p50") or [None])[-1]
            fail_a = _series_last(series_a, "avg_failure").get(name)
            fail_b = _series_last(series_b, "avg_failure").get(name)
            methods[name] = {
                "count": {"a": counts_a, "b": counts_b,
                          "delta": _delta(counts_a, counts_b)},
                "objective_p50": {"a": p50_a, "b": p50_b,
                                  "delta": _delta(p50_a, p50_b)},
                "avg_failure": {"a": fail_a, "b": fail_b,
                                "delta": _delta(fail_a, fail_b)},
            }
        out["series"] = {
            "methods": methods,
            "only_a": sorted(set(series_a) - set(series_b)),
            "only_b": sorted(set(series_b) - set(series_a)),
        }

    seconds_a = a.manifest.get("seconds")
    seconds_b = b.manifest.get("seconds")
    if isinstance(seconds_a, dict) and isinstance(seconds_b, dict):
        out["seconds"] = {
            phase: {
                "a": seconds_a[phase],
                "b": seconds_b[phase],
                "delta": _delta(seconds_a[phase], seconds_b[phase]),
            }
            for phase in sorted(set(seconds_a) & set(seconds_b))
            if isinstance(seconds_a[phase], (int, float))
            and isinstance(seconds_b[phase], (int, float))
        }

    cache_a = a.manifest.get("cache")
    cache_b = b.manifest.get("cache")
    if isinstance(cache_a, dict) and isinstance(cache_b, dict):
        out["cache"] = {
            key: {"a": cache_a.get(key), "b": cache_b.get(key),
                  "delta": _delta(cache_a.get(key), cache_b.get(key))}
            for key in sorted(set(cache_a) | set(cache_b))
        }

    sources_a = a.unit_sources()
    sources_b = b.unit_sources()
    batch: dict[str, Any] = {}
    if a.manifest.get("batch_units") is not None or b.manifest.get("batch_units") is not None:
        batch["batch_units"] = {
            "a": a.manifest.get("batch_units"),
            "b": b.manifest.get("batch_units"),
            "delta": _delta(a.manifest.get("batch_units"),
                            b.manifest.get("batch_units")),
        }
    if sources_a or sources_b:
        batch["sources"] = {
            source: {"a": sources_a.get(source, 0), "b": sources_b.get(source, 0),
                     "delta": sources_b.get(source, 0) - sources_a.get(source, 0)}
            for source in sorted(set(sources_a) | set(sources_b))
        }
    if batch:
        out["batch"] = batch
    return out


def _fmt(value: "float | int | str | None", digits: int = 4, sign: bool = False) -> str:
    if value is None:
        return "-"
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, int):
        return f"{value:+d}" if sign else str(value)
    return f"{value:{'+' if sign else ''}.{digits}g}"


def render_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_runs` record."""
    lines = [f"diff {diff['a']} -> {diff['b']}"]
    series = diff.get("series")
    if series:
        lines.append("objective (final sweep point, b - a):")
        for name, record in sorted(series["methods"].items()):
            count = record["count"]
            p50 = record["objective_p50"]
            lines.append(
                f"  {name:18s} count {count['a']} -> {count['b']} "
                f"({_fmt(count['delta'], sign=True)})  "
                f"p50 {_fmt(p50['a'])} -> {_fmt(p50['b'])} ({_fmt(p50['delta'], sign=True)})"
            )
        for side, only in (("a", series["only_a"]), ("b", series["only_b"])):
            if only:
                lines.append(f"  only in {side}: {', '.join(only)}")
    seconds = diff.get("seconds")
    if seconds:
        lines.append("timings (seconds, b - a):")
        for phase, record in seconds.items():
            lines.append(
                f"  {phase:18s} {record['a']:.3f} -> {record['b']:.3f} "
                f"({_fmt(record['delta'], 3, sign=True)})"
            )
    cache = diff.get("cache")
    if cache:
        lines.append("cache (b - a):")
        for key, record in cache.items():
            lines.append(
                f"  {key:18s} {_fmt(record['a'])} -> {_fmt(record['b'])} "
                f"({_fmt(record['delta'], sign=True)})"
            )
    batch = diff.get("batch")
    if batch:
        lines.append("batch attribution (b - a):")
        if "batch_units" in batch:
            record = batch["batch_units"]
            lines.append(
                f"  {'batch_units':18s} {_fmt(record['a'])} -> "
                f"{_fmt(record['b'])} ({_fmt(record['delta'], sign=True)})"
            )
        for source, record in (batch.get("sources") or {}).items():
            lines.append(
                f"  {'units[' + source + ']':18s} {record['a']} -> "
                f"{record['b']} ({_fmt(record['delta'], sign=True)})"
            )
    return "\n".join(lines)


# -- report rendering -----------------------------------------------------


def render_report(manifest: dict, per_unit: "Iterable[dict]" = ()) -> str:
    """Deterministic ``report.md`` text for a run manifest.

    Pure function of its inputs (no clocks, no environment), so the
    byte-identity contract of :func:`write_run` extends to the report.
    """
    lines = [f"# repro run `{manifest.get('run_id', '?')}`", ""]
    lines.append(f"- command: `{manifest.get('command', '?')}`")
    scenarios, n_instances = _workload(manifest)
    for scenario in scenarios:
        if isinstance(scenario, dict) and scenario.get("name"):
            lines.append(
                f"- scenario: `{scenario['name']}` "
                f"(spec `{(scenario.get('spec_hash') or '?')[:12]}`)"
            )
    fields = dict(manifest, n_instances=n_instances)
    for field in ("objective", "seed", "n_instances", "batch_units"):
        if fields.get(field) is not None:
            lines.append(f"- {field}: {fields[field]}")
    seconds = manifest.get("seconds")
    if isinstance(seconds, dict):
        phases = ", ".join(
            f"{phase} {value:.3f}s"
            for phase, value in sorted(seconds.items())
            if isinstance(value, (int, float))
        )
        lines.append(f"- seconds: {phases}")
    cache = manifest.get("cache")
    if isinstance(cache, dict):
        rate = cache.get("hit_rate")
        rate_text = f", hit_rate {rate:.3f}" if isinstance(rate, float) else ""
        lines.append(
            f"- cache: {cache.get('hits', 0)} hits, {cache.get('misses', 0)} "
            f"misses, {cache.get('puts', 0)} puts, "
            f"{cache.get('corrupt', 0)} corrupt{rate_text}"
        )
        if cache.get("replayed_from"):
            lines.append(
                f"- replayed from run `{cache['replayed_from']}` "
                "(no unit generated, solved or looked up)"
            )

    series = manifest.get("series")
    if isinstance(series, dict) and series:
        lines += ["", "## Methods (final sweep point)", ""]
        lines.append("| method | solved | avg failure | objective p50 |")
        lines.append("|---|---|---|---|")
        for name in sorted(series):
            record = series[name]
            counts = record.get("counts") or [None]
            failures = record.get("avg_failure") or [None]
            p50 = (record.get("objective_quantiles") or {}).get("p50") or [None]

            def cell(value: "float | int | None") -> str:
                if value is None:
                    return "-"
                return f"{value:.4g}" if isinstance(value, float) else str(value)

            lines.append(
                f"| {name} | {cell(counts[-1])} | {cell(failures[-1])} "
                f"| {cell(p50[-1])} |"
            )

    sources: dict[str, int] = {}
    converged: dict[str, int] = {"converged": 0, "not_converged": 0}
    coverage: dict[str, dict] = {}
    for row in per_unit:
        source = str(row.get("source", "?"))
        sources[source] = sources.get(source, 0) + 1
        if row.get("converged") is True:
            converged["converged"] += 1
        elif row.get("converged") is False:
            converged["not_converged"] += 1
        if source == "replay":  # served by no path of the sweep
            continue
        record = coverage.setdefault(
            str(row.get("method", "?")),
            {"batch": 0, "per_row": 0, "cache": 0},
        )
        bucket = source if source in ("batch", "cache") else "per_row"
        record[bucket] += 1
    if sources:
        lines += ["", "## Unit attribution", ""]
        for source in sorted(sources):
            lines.append(f"- {source}: {sources[source]} units")
        if converged["converged"] or converged["not_converged"]:
            lines.append(
                f"- search convergence: {converged['converged']} converged, "
                f"{converged['not_converged']} budget-exhausted"
            )
    if coverage:
        lines += ["", "## Batch coverage", ""]
        lines.append("| method | batch | per-row | cache |")
        lines.append("|---|---|---|---|")
        for method in sorted(coverage):
            record = coverage[method]
            lines.append(
                f"| {method} | {record['batch']} | {record['per_row']} "
                f"| {record['cache']} |"
            )

    telemetry = manifest.get("telemetry")
    if isinstance(telemetry, dict) and telemetry.get("spans"):
        lines += ["", "## Spans", ""]
        lines.append("| span | count | seconds |")
        lines.append("|---|---|---|")
        for key in sorted(telemetry["spans"]):
            agg = telemetry["spans"][key]
            lines.append(
                f"| {key} | {agg.get('count', 0)} | {agg.get('seconds', 0.0):.4f} |"
            )
    return "\n".join(lines) + "\n"
