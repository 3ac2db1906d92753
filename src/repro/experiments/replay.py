"""The cache directory's files, and run-level replay.

This module reads, writes, counts and vacuums every file of a cache
directory, and a warm ``scenario run`` replays its run record through
it before anything imports numpy: it imports only the standard
library, :mod:`repro.util.hashing` and :mod:`repro.obs`.  Unit keys,
counters and arrays belong to :mod:`repro.experiments.cache`.

The directory
-------------
One flat directory holds one file per key: ``<root>/<key>.json``, a
*unit entry* (one method's results on one instance over a sweep's
points), and ``<root>/<key>.run``, a *run record* (what a whole
``scenario run`` printed and recorded).  A key is a
:func:`~repro.util.hashing.content_hash`, 64 lowercase hex digits;
files of any other name are neither read, counted nor vacuumed, and
neither are pre-5.0 fan-out subdirectories.  Both kinds are one
envelope, the canonical ``json.dumps(payload, sort_keys=True)`` of
``{"repro_cache": CACHE_FORMAT, "source": ..., ...}``, where ``source``
is :func:`repro.util.hashing.source_digest`, one digest of every
package ``*.py`` file.  Writes go through
:func:`~repro.obs.ledger.write_atomic` (a temp file + ``os.replace``),
so concurrent runs sharing a directory never observe a partial file;
an interrupted writer can leave only an orphaned ``*.tmp`` file.  No
state is shared beyond the filesystem, so any shared POSIX mount works.

Every file is read the same way (:func:`read_file`).  An absent file is
a miss.  A file that cannot be decoded, carries another format or
source stamp, or has the wrong shape for its kind is a *corrupt* miss:
it is deleted, and the next write replaces it.  :func:`vacuum` removes
every ``*.tmp`` file and every file this reading finds corrupt (in a
directory shared between checkouts, the other checkouts' files too).
``$REPRO_CACHE_DIR`` is the directory when none is given
(:func:`cache_root`); unset means no cache.

Run records
-----------
A ``scenario run`` with a cache directory ends by writing one run
record.  It holds what the command line and the source fix: the
manifest's scenario, plan, grid, points, series and versions, the
printed result tables and the ledger's per-unit rows.  A later
identical command finds the record under the same key and replays it.
It imports no numpy, plans, generates and solves nothing and looks up
no unit; its manifest's ``cache`` block shows no lookup and names the
replayed run (``replayed_from``).

:func:`run_key` hashes

* the result-bearing arguments as given: the scenario token (plus the
  spec file's bytes when the token names a file), ``--seed``,
  ``--n-instances``, ``--methods``, the objective and floor, the grid
  mode, axis and point count, and the point bounds.  ``--jobs``,
  ``--cache-dir``, ``--runs-dir``, ``--manifest`` and ``--timestamp``
  do not change results and are not part of it;
* :data:`CACHE_FORMAT`;
* :func:`repro.util.hashing.source_digest`, the same digest the unit
  keys carry through each method's fingerprint.  Editing any module
  therefore makes the next run re-solve every unit;
* the bytes of numpy's ``version.py`` (located with
  :func:`importlib.util.find_spec`, which does not import numpy) and
  the Python version.

A key that is too coarse costs one unit-level warm run, never a wrong
answer.  A record that cannot be used is a corrupt miss like any other
file: the run takes the unit-level path, and its completion writes the
record again.  Deleting ``<root>/*.run`` forces a unit-level warm run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import re
import sys
from typing import Callable, Iterator

from repro.obs import write_atomic
from repro.util.hashing import content_hash, file_digest, source_digest

__all__ = [
    "CACHE_FORMAT",
    "CORRUPT",
    "cache_root",
    "read_file",
    "read_record",
    "replay_manifest",
    "replay_units",
    "run_key",
    "scan",
    "storage_stats",
    "vacuum",
    "write_file",
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

#: File suffix of a unit entry.
ENTRY_SUFFIX = ".json"

#: File suffix of a run record.
RECORD_SUFFIX = ".run"

#: The name of every file a key names: a SHA-256 hex digest.
_KEY = re.compile(r"[0-9a-f]{64}")

#: What :func:`read_file` returns for a corrupt file.
CORRUPT = object()

#: Manifest fields a run record carries and a replay reproduces.
REPLAYED_FIELDS = (
    "scenario", "seed", "n_instances", "objective", "min_reliability",
    "plan", "grid", "points", "series",
)

#: Per-unit ledger fields that describe how a unit was served, not its
#: result; a replay serves every unit itself.
_SERVING_FIELDS = ("source", "seconds", "batch_group")


# -- the directory -------------------------------------------------------


def cache_root(cache_dir: "str | os.PathLike[str] | None") -> "pathlib.Path | None":
    """The cache directory a command uses: *cache_dir*, else
    ``$REPRO_CACHE_DIR``, else ``None`` (no cache).

    Raises ValueError when the path, or the nearest part of it that
    exists, is not a directory: the first cache write could never
    succeed, so a run must not solve anything first.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        if cache_dir is None:
            return None
    root = pathlib.Path(cache_dir)
    existing = next((p for p in (root, *root.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        where = "" if existing == root else f" ({existing} is a file)"
        raise ValueError(f"cache directory {root} is not a directory{where}")
    return root


def _current(payload: object) -> bool:
    """Whether *payload* is an envelope this package wrote: a JSON
    object stamped with this format and this source digest."""
    return (
        isinstance(payload, dict)
        and payload.get("repro_cache") == CACHE_FORMAT
        and payload.get("source") == source_digest()
    )


def _remove(path: pathlib.Path) -> bool:
    """Unlink *path*; ``False`` when it is already gone (a concurrent
    vacuum or heal got there first) or cannot be removed."""
    try:
        path.unlink()
        return True
    except OSError:
        return False


def read_file(path: pathlib.Path, decode: "Callable[[dict], object] | None" = None) -> object:
    """The envelope stored at *path*, passed through *decode* if given.

    ``None`` when the file is absent.  A file that is not a current
    envelope, or whose payload *decode* rejects (``ValueError`` /
    ``KeyError`` / ``TypeError``), is deleted so the next write
    replaces it, and read as :data:`CORRUPT`.
    """
    try:
        payload = json.loads(path.read_bytes())  # JSONDecodeError is a ValueError
        if not _current(payload):
            raise ValueError("cache file of other format or source")
        return payload if decode is None else decode(payload)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError):
        _remove(path)
        return CORRUPT


def write_file(path: pathlib.Path, payload: dict) -> None:
    """Store *payload* at *path* in its stamped envelope, atomically."""
    envelope = {**payload, "repro_cache": CACHE_FORMAT, "source": source_digest()}
    write_atomic(path, json.dumps(envelope, sort_keys=True))


def _key_files(root: pathlib.Path, suffix: str) -> "list[pathlib.Path]":
    """The files of *root* named ``<key><suffix>``, in key order (none
    when *root* is absent)."""
    if not root.is_dir():
        return []
    return sorted(p for p in root.glob(f"*{suffix}") if _KEY.fullmatch(p.stem))


def scan(root: pathlib.Path) -> "Iterator[tuple[str, str]]":
    """Yield every unit entry's ``(key, text)`` in key order."""
    for entry in _key_files(root, ENTRY_SUFFIX):
        yield entry.stem, entry.read_text()


def storage_stats(root: pathlib.Path) -> dict:
    """Persistent on-disk totals of the directory (``repro cache
    stats``): ``entries`` and ``bytes`` cover the unit entries;
    ``run_records`` counts the run records beside them."""
    entries = _key_files(root, ENTRY_SUFFIX)
    return {
        "entries": len(entries),
        "bytes": sum(e.stat().st_size for e in entries),
        "run_records": len(_key_files(root, RECORD_SUFFIX)),
    }


def vacuum(root: pathlib.Path) -> dict:
    """Remove what no run of this package reads (``repro cache
    vacuum``): every ``*.tmp`` file, and every unit entry and run
    record that :func:`read_file` finds corrupt (its envelope is
    unreadable, unstamped or names other source), which deletes it.
    Current files are left untouched."""
    tmp = sorted(root.glob("*.tmp")) if root.is_dir() else []
    return {
        "removed_tmp": sum(_remove(p) for p in tmp),
        "removed_entries": sum(read_file(p) is CORRUPT for p in _key_files(root, ENTRY_SUFFIX)),
        "removed_runs": sum(read_file(p) is CORRUPT for p in _key_files(root, RECORD_SUFFIX)),
    }


# -- run records ---------------------------------------------------------


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
    """The run record stored under *key*, or ``None``: absent, or
    corrupt (another stamp or key, or a field a replay reads of the
    wrong type), which :func:`read_file` deletes."""

    def checked(record: dict) -> dict:
        manifest = record.get("manifest")
        plan = manifest.get("plan") if isinstance(manifest, dict) else None
        if not (
            record.get("key") == key
            and isinstance(record.get("run_id"), str)
            and isinstance(record.get("identity"), dict)
            and isinstance(record.get("text"), str)
            and isinstance(record.get("units"), list)
            and all(isinstance(row, dict) for row in record["units"])
            and isinstance(manifest, dict)
            and all(field in manifest for field in REPLAYED_FIELDS)
            and isinstance(manifest.get("versions"), dict)
            and isinstance(manifest["scenario"], dict)
            and isinstance(plan, dict)
            and isinstance(plan.get("selected"), list)
            and isinstance(plan.get("skipped"), list)
            and all(isinstance(skip, dict) for skip in plan["skipped"])
        ):
            raise ValueError(f"not a usable run record of key {key}")
        return record

    record = read_file(_record_path(root, key), checked)
    return None if record is CORRUPT else record


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
    write_file(_record_path(root, key), {
        "key": key,
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
    })


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
