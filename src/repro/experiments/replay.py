"""Run-level replay: a warm ``scenario run`` served from one record.

A ``scenario run`` with a cache directory ends by writing one *run
record* into it, ``<root>/<key>.run``, next to the unit entries
(``<key>.json``, :mod:`repro.experiments.cache`).  The record holds
what the command line and the source fix: the manifest's scenario,
plan, grid, points, series and versions, the printed result tables and
the ledger's per-unit rows.  A later identical command finds the record
under the same key and replays it.  It imports no numpy, plans,
generates and solves nothing and looks up no unit; its manifest's
``cache`` block shows no lookup and names the replayed run
(``replayed_from``).

This module is what a ``scenario run`` settles before it imports
numpy: the ``--jobs`` and cache-directory fallbacks, the key, and
reading and writing records.  It imports only the standard library and
:mod:`repro.util.hashing`.

Key
---
:func:`run_key` hashes

* the result-bearing arguments as given: the scenario token (plus the
  spec file's bytes when the token names a file), ``--seed``,
  ``--n-instances``, ``--methods``, the objective and floor, the grid
  mode, axis and point count, and the point bounds.  ``--jobs``,
  ``--cache-dir``, ``--runs-dir``, ``--manifest`` and ``--timestamp``
  do not change results and are not part of it;
* :data:`CACHE_FORMAT`;
* :func:`repro.util.hashing.source_digest`, one digest of every
  ``*.py`` file of the package (``__version__`` included), the same
  digest the unit keys carry through each method's fingerprint.
  Editing any module therefore makes the next run re-solve every unit;
* the bytes of numpy's ``version.py`` (located with
  :func:`importlib.util.find_spec`, which does not import numpy) and
  the Python version.

A key that is too coarse costs one unit-level warm run, never a wrong
answer.  A record that cannot be used (torn, garbage, another format or
key) is a miss: the run takes the unit-level path, and its completion
overwrites the record.  Deleting ``<root>/*.run`` forces a unit-level
warm run.  Each record also stores the source digest it was written
under, so ``repro cache vacuum`` can drop the records no run of the
current source can reach (:func:`stale_record`).
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import sys

from repro.util.hashing import content_hash, file_digest, source_digest

__all__ = [
    "CACHE_FORMAT",
    "RECORD_SUFFIX",
    "cache_root",
    "read_record",
    "replay_manifest",
    "replay_units",
    "resolve_jobs",
    "run_key",
    "stale_record",
    "write_record",
]

#: Format stamp of every file in a cache directory, unit entries and run
#: records alike.  Bumped to 2 with the :mod:`repro.solve` redesign (keys
#: derived from per-point Problem content hashes), to 3 with the
#: tri-criteria facade (objective/floor fields in every Problem payload,
#: grid probe records), and to 4 with the columnar ensemble core: keys are
#: now derived from raw-array *instance digests* instead of JSON Problem
#: payload hashes, and entries carry per-point achieved objective values.
#: The one-release format-3 legacy-read path was removed in 1.4.0;
#: pre-columnar entries simply miss and recompute.  Bumped to 5 in 2.1.0:
#: entries carry the witness's per-point worst-case ``period`` and
#: ``latency``, and grid probes are plain sweep units (the separate probe
#: records are gone).
CACHE_FORMAT = 5

#: File suffix of a run record; unit entries end in ``.json``.
RECORD_SUFFIX = ".run"

#: Manifest fields a run record carries and a replay reproduces.
REPLAYED_FIELDS = (
    "scenario", "seed", "n_instances", "objective", "min_reliability",
    "plan", "grid", "points", "series",
)

#: Per-unit ledger fields that describe how a unit was served, not its
#: result; a replay serves every unit itself.
_SERVING_FIELDS = ("source", "seconds", "batch_group")


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``jobs`` argument: ``None`` -> ``$REPRO_JOBS`` -> 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1") or "1"
        if not (raw.strip().isdecimal() and int(raw) >= 1):
            raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
        return int(raw)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def cache_root(cache_dir: "str | os.PathLike[str] | None") -> "pathlib.Path | None":
    """The cache directory a command uses: *cache_dir*, else
    ``$REPRO_CACHE_DIR``, else ``None`` (no cache)."""
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        if cache_dir is None:
            return None
    return pathlib.Path(cache_dir)


def _numpy_version_digest() -> "str | None":
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return file_digest(os.path.join(spec.submodule_search_locations[0], "version.py"))


def run_key(args) -> str:
    """The run-record key of a parsed ``scenario run`` command line."""
    token = args.scenario
    return content_hash({
        "repro_cache": CACHE_FORMAT,
        "source": source_digest(),
        "numpy": _numpy_version_digest(),
        "python": sys.version,
        "scenario": token,
        "spec_file": file_digest(token) if os.path.isfile(token) else None,
        "seed": args.seed,
        "n_instances": args.n_instances,
        "methods": args.methods,
        "objective": args.objective,
        # repr() keeps inf and nan hashable as canonical JSON.
        "min_reliability": repr(args.min_reliability),
        "grid": [args.grid, args.grid_axis, args.grid_points],
        "bounds": [repr(args.max_period), repr(args.max_latency)],
    })


def _record_path(root: pathlib.Path, key: str) -> pathlib.Path:
    return root / f"{key}{RECORD_SUFFIX}"


def read_record(root: pathlib.Path, key: str) -> "dict | None":
    """The run record stored under *key*, or ``None``.

    ``None`` covers a missing record and one that cannot be used: not
    JSON, another format stamp or key, or a field of the wrong type.
    """
    try:
        with open(_record_path(root, key), "rb") as handle:
            record = json.loads(handle.read())
    except (OSError, ValueError):  # absent, unreadable or not JSON
        return None
    if not (
        isinstance(record, dict)
        and record.get("repro_cache") == CACHE_FORMAT
        and record.get("key") == key
        and isinstance(record.get("run_id"), str)
        and isinstance(record.get("identity"), dict)
        and isinstance(record.get("text"), str)
        and isinstance(record.get("units"), list)
        and all(isinstance(row, dict) for row in record["units"])
        and isinstance(record.get("manifest"), dict)
    ):
        return None
    manifest = record["manifest"]
    plan = manifest.get("plan")
    if not (
        all(field in manifest for field in REPLAYED_FIELDS)
        and isinstance(manifest.get("versions"), dict)
        and isinstance(manifest["scenario"], dict)
        and isinstance(plan, dict)
        and isinstance(plan.get("selected"), list)
        and isinstance(plan.get("skipped"), list)
        and all(isinstance(skip, dict) for skip in plan["skipped"])
    ):
        return None
    return record


def write_record(
    root: pathlib.Path,
    key: str,
    identity: dict,
    manifest: dict,
    text: str,
    per_unit: "list[dict]",
) -> None:
    """Store the run record of a finished ``scenario run``.

    *manifest* is the run's recorded manifest (with its ``run_id`` and
    ``versions``), *text* the result tables it printed and *per_unit*
    its ledger rows, kept without the fields that say how each unit
    was served.
    """
    from repro.obs.ledger import write_atomic

    record = {
        "repro_cache": CACHE_FORMAT,
        "key": key,
        "source": source_digest(),
        "run_id": manifest["run_id"],
        "identity": identity,
        "manifest": {
            **{field: manifest[field] for field in REPLAYED_FIELDS},
            "versions": manifest["versions"],
        },
        "text": text,
        "units": [
            {k: v for k, v in row.items() if k not in _SERVING_FIELDS}
            for row in per_unit
        ],
    }
    write_atomic(_record_path(root, key), json.dumps(record, sort_keys=True))


def stale_record(path: pathlib.Path) -> bool:
    """Whether the run record at *path* was written under source other
    than the running package's, or cannot say which: no run of this
    source can key to it."""
    try:
        with open(path, "rb") as handle:
            record = json.loads(handle.read())
    except (OSError, ValueError):
        return True
    return not (isinstance(record, dict) and record.get("source") == source_digest())


def replay_units(record: dict) -> "list[dict]":
    """The replay's ledger rows: the recorded results, each served by
    the replay (``source: "replay"``) at no measured cost."""
    return [{**row, "source": "replay", "seconds": None} for row in record["units"]]


def replay_manifest(record: dict, seconds: dict, telemetry: dict) -> dict:
    """The manifest fields of a replay, in a ``scenario run``'s order.

    The recorded fields come back unchanged.  ``seconds`` and
    ``telemetry`` are the replay's own, no unit was batch-served, and
    the ``cache`` block counts no lookup and names the replayed run.
    """
    recorded = record["manifest"]
    return {
        **{field: recorded[field] for field in REPLAYED_FIELDS},
        "seconds": seconds,
        "batch_units": 0,
        "timings": {},
        "cache": {
            "hits": 0, "misses": 0, "puts": 0, "corrupt": 0, "hit_rate": None,
            "replayed_from": record["run_id"],
        },
        "telemetry": telemetry,
    }
