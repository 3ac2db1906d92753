"""On-disk result cache for bound sweeps.

The paper's evaluation recomputes the same ``method x instance x
bounds`` solves for every figure, bench, and cross-check run.  This
module gives them a shared, content-addressed store so a sweep
computed once is free forever after.

Layout
------
:class:`ResultCache` owns key derivation, record validation,
corrupt-entry recovery, the hit/miss counters and the files
themselves: one flat directory holding one file per key,
``<root>/<key>.json``, whose text is the canonical
``json.dumps(record, sort_keys=True)``.  Writes go through
:func:`repro.obs.ledger.write_atomic` (a temp file in *root* +
``os.replace``), so concurrent runs sharing a directory never observe
a partial entry; the only leftover an interrupted writer can leave is
an orphaned ``*.tmp`` file, which :meth:`ResultCache.vacuum` removes.
Files get the mode a plain ``open`` would give them, so a directory
shared between users stays readable to them all.
No state is shared beyond the filesystem: no handles, nothing to
pickle, any shared POSIX mount works.  Directories written by releases
before 5.0 kept entries in two-character fan-out subdirectories; those
are never read or counted (their keys could not match anyway, since
the package source is a key ingredient).  The same directory holds
the ``<key>.run`` records of whole ``scenario run`` invocations
(:mod:`repro.experiments.replay`); entry scans never read them,
:meth:`ResultCache.storage_stats` counts them apart, and
:meth:`ResultCache.vacuum` removes those written under other source.

Keys
----
``key = sha256(CACHE_FORMAT, method name, instance digest, objective
fields, per-point bound tokens, method fingerprint)`` via
:func:`repro.io.content_hash`.  The *instance digest*
(:func:`repro.core.ensemble.instance_digest`) is a raw-array-bytes
hash shared by the columnar :class:`~repro.core.ensemble.Ensemble`
rows and materialized ``(chain, platform)`` pairs — deriving keys from
it means a warm sweep over an ensemble never builds a model object or
a JSON payload, and an ensemble sweep and its materialized twin hit
the exact same entries.  The fingerprint carries
:func:`repro.util.hashing.source_digest`, which run records are keyed
by too: one digest of every package ``*.py`` file, ``__version__``
and this module included.  Keys are stable across process restarts,
and automatically invalidated when any ingredient (chain, platform,
bounds, objective, method identity, package source) changes, because
a different key simply never matches.  Each entry holds::

    {"repro_cache": CACHE_FORMAT, "method": ..., "n_points": ...,
     "solved": [...bools...], "failure": [...floats...],
     "objective_values": [...floats...],
     "period": [...floats...], "latency": [...floats...],
     "info": {...}}                      # only when the method reports one

``objective_values`` records each point's achieved objective value
(:meth:`repro.algorithms.result.SolveResult.objective_value`) so the
sweep aggregations can report quantiles of the optimum, not just
solved counts; ``period`` and ``latency`` record the witness mapping's
worst-case period and latency (``"inf"`` where unsolved) — what
:func:`repro.solve.derive_bounds_grid` reads off its unbounded probe
units, which are ordinary sweep units.

Corrupted or truncated entries (interrupted writes, disk faults) are
treated as misses and discarded, so recovery is automatic: the unit is
recomputed and rewritten.  Each such recovery also increments the
dedicated :attr:`ResultCache.corrupt` counter — a corrupt entry *is* a
miss for control flow, but a run whose manifest shows nonzero
``corrupt`` had cache entries damaged on disk, which plain miss counts
used to hide.

Environment
-----------
``REPRO_CACHE_DIR``
    Default cache directory for the harness/figures/benches when no
    explicit ``cache`` argument is given.  Unset means "no cache".

Statistics (:attr:`ResultCache.hits` / ``misses`` / ``puts`` /
``corrupt``) feed the run manifest written by ``python -m repro
experiment``; persistent on-disk totals come from
:meth:`ResultCache.storage_stats` (``repro cache stats``).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Iterator, Sequence

import numpy as np

from repro.algorithms.result import UnitResults
from repro.experiments.replay import CACHE_FORMAT, RECORD_SUFFIX, cache_root, stale_record
from repro.obs import telemetry as obs
from repro.obs.ledger import write_atomic
from repro.solve.problem import encode_bound
from repro.util.hashing import content_hash

__all__ = [
    "CACHE_FORMAT",
    "ResultCache",
    "resolve_cache",
    "unit_arrays",
    "unit_record",
]

class ResultCache:
    """Content-addressed store of per-unit sweep results.

    Parameters
    ----------
    root:
        Cache directory (created on first write); entry *key* lives at
        :meth:`path` ``(key)``.

    Attributes
    ----------
    hits, misses, puts:
        Lookup/store counters since construction — the "zero solves on a
        warm cache" acceptance check reads these.
    corrupt:
        How many lookups found an entry on disk but could not use it
        (bad JSON, wrong format, wrong shape).  Every corrupt lookup
        also counts as a miss — the unit recomputes either way — but a
        nonzero ``corrupt`` means cache entries were damaged, not
        merely absent.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    def path(self, key: str) -> pathlib.Path:
        """Where *key*'s entry lives: ``<root>/<key>.json``."""
        return self.root / f"{key}.json"

    # -- keys ------------------------------------------------------------

    def unit_key_for(
        self,
        method_name: str,
        base_digest: str,
        bounds: Sequence[tuple[float, float]],
        fingerprint: "str | None" = None,
        scenario: "str | None" = None,
        objective: str = "reliability",
        min_reliability: float = 0.0,
    ) -> str:
        """Content hash identifying one work unit's result.

        A unit is one method run on one instance over a family of sweep
        points.  *base_digest* is the instance's raw-array content
        digest (:func:`repro.core.ensemble.instance_digest` — an
        :class:`~repro.core.ensemble.Ensemble` row hash, or the same
        digest computed from a materialized pair), so key derivation
        involves no object or JSON construction; each point contributes
        its (P, L) bound tokens, and the problem-level *objective* and
        *min_reliability* fields are explicit ingredients.

        The method's implementation *fingerprint*
        (:meth:`Method.fingerprint`, which carries the package source
        digest) is part of the key, so neither an edit to the package
        nor a re-registered method ever replays stale arrays from a
        shared cache directory.

        When the sweep was materialized from a declarative scenario,
        *scenario* carries the spec's content hash
        (:func:`repro.scenarios.scenario_hash`) and becomes part of the
        key: two workloads that happen to generate an identical
        instance still keep separate entries, and editing a spec's
        generative fields can never replay arrays computed for the old
        workload.
        """
        ingredients = {
            "repro_cache": CACHE_FORMAT,
            "method": method_name,
            "fingerprint": fingerprint,
            "objective": objective,
            "min_reliability": float(min_reliability),
        }
        if scenario is not None:
            ingredients["scenario"] = scenario
        return content_hash(
            ingredients,
            base_digest,
            [[encode_bound(float(P)), encode_bound(float(L))] for P, L in bounds],
        )

    # -- lookup / store --------------------------------------------------

    def get_record(
        self,
        key: str,
        method_name: "str | None" = None,
        n_points: "int | None" = None,
    ) -> "dict | UnitResults | None":
        """Return the record stored under *key*, or None on a miss.

        With *n_points* the record must decode as a sweep unit of that
        many points (:func:`unit_arrays`) to count as a hit, and the
        hit comes back decoded: the one-row
        :class:`~repro.algorithms.result.UnitResults` the sweep records,
        so no hit is decoded twice.  A malformed entry — undecodable
        bytes, wrong format stamp, wrong shape — counts as a miss *and*
        a :attr:`corrupt` lookup and is discarded, so the recomputed
        unit overwrites it.

        *method_name* labels the telemetry counters
        (``cache.hit[heur-l]``, ...) when a collector is installed —
        the per-method cache breakdown run manifests report.
        """
        try:
            payload = self._load(key)
            if payload is not None:
                if payload.get("repro_cache") != CACHE_FORMAT:
                    raise ValueError("cache format mismatch")
                if n_points is not None:
                    payload = unit_arrays(payload, n_points)
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupted entry: recover by dropping it and recomputing.
            self.misses += 1
            self.corrupt += 1
            obs.counter("cache.corrupt", label=method_name)
            self.discard(key)
            return None
        if payload is None:
            self.misses += 1
            obs.counter("cache.miss", label=method_name)
            return None
        self.hits += 1
        obs.counter("cache.hit", label=method_name)
        return payload

    def put_record(self, key: str, record: dict) -> None:
        """Store a JSON-able record atomically.

        The format stamp is added here; everything else is the
        caller's payload (for sweep units, built by :func:`unit_record`).
        The write is a temp file + rename, so a concurrent reader never
        observes a torn entry.
        """
        payload = {"repro_cache": CACHE_FORMAT, **record}
        write_atomic(self.path(key), json.dumps(payload, sort_keys=True))
        self.puts += 1

    def _load(self, key: str) -> "dict | None":
        """The entry stored under *key*, ``None`` if absent; raises
        ``ValueError`` (or ``OSError``) when it exists but is not a
        JSON object (torn write, disk damage)."""
        try:
            text = self.path(key).read_text()
        except FileNotFoundError:
            return None
        payload = json.loads(text)  # JSONDecodeError is a ValueError
        if not isinstance(payload, dict):
            raise ValueError("cache entry is not a JSON object")
        return payload

    def discard(self, key: str) -> None:
        """Drop *key*'s entry if present (corrupt-entry recovery)."""
        try:
            self.path(key).unlink()
        except OSError:
            pass

    # -- bookkeeping -----------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for manifests and logs.

        ``hit_rate`` is ``hits / (hits + misses)``, or None before any
        lookup — manifests report it directly instead of every reader
        re-deriving it.
        """
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "hit_rate": self.hits / lookups if lookups else None,
        }

    def _entries(self) -> "list[pathlib.Path]":
        """The entry files, in key order (none when *root* is absent)."""
        return sorted(self.root.glob("*.json")) if self.root.is_dir() else []

    def scan(self) -> "Iterator[tuple[str, str]]":
        """Yield every ``(key, entry_text)`` in sorted key order."""
        for entry in self._entries():
            yield entry.stem, entry.read_text()

    def storage_stats(self) -> dict:
        """Persistent on-disk totals — meaningful without a live sweep,
        unlike the process-local :meth:`stats`; what ``repro cache
        stats`` reports.  ``entries`` and ``bytes`` cover the unit
        entries; ``run_records`` counts the run records
        (:mod:`repro.experiments.replay`) beside them."""
        entries = self._entries()
        records = list(self.root.glob(f"*{RECORD_SUFFIX}")) if self.root.is_dir() else []
        return {
            "entries": len(entries),
            "bytes": sum(e.stat().st_size for e in entries),
            "run_records": len(records),
        }

    def vacuum(self) -> dict:
        """Remove what no later run reads (``repro cache vacuum``): the
        orphaned ``*.tmp`` files interrupted writers left in *root*, and
        the run records written under other source
        (:func:`repro.experiments.replay.stale_record`).  Unit entries
        are untouched."""
        removed = {"removed_tmp": 0, "removed_runs": 0}
        if self.root.is_dir():
            runs = filter(stale_record, self.root.glob(f"*{RECORD_SUFFIX}"))
            for field, paths in (("removed_tmp", self.root.glob("*.tmp")), ("removed_runs", runs)):
                for path in paths:
                    try:
                        path.unlink()
                        removed[field] += 1
                    except OSError:  # a concurrent vacuum got there first
                        pass
        return removed

    def reset(self) -> None:
        """Zero the counters (entries on disk are untouched).

        Lets one shared cache report per-phase stats: reset between a
        cold and a warm leg and each leg's manifest sees only its own
        lookups.
        """
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"


def unit_record(results: UnitResults, r: int, method_name: str = "") -> dict:
    """Build the canonical sweep-unit record from row *r* of *results*.

    The row's info carries the unit's solve-detail record (search probe
    totals, a convergence flag) when the method reported one, so a warm
    run's ledger still attributes convergence per unit.  Entries
    without one omit the field entirely — the batched and per-row paths
    keep writing byte-identical payloads for methods that report no
    details.
    """
    record = {
        "method": method_name,
        "n_points": int(results.solved.shape[1]),
        "solved": [bool(s) for s in results.solved[r]],
        "failure": [float(f) for f in results.failure[r]],
        "objective_values": [_encode_value(v) for v in results.values[r]],
        "period": [_encode_value(v) for v in results.period[r]],
        "latency": [_encode_value(v) for v in results.latency[r]],
    }
    if results.infos[r] is not None:
        record["info"] = results.infos[r]
    return record


def unit_arrays(record: dict, n_points: int) -> UnitResults:
    """Decode a sweep-unit record into a one-row :class:`UnitResults`.

    A record missing any array (or whose arrays do not hold *n_points*
    entries) is malformed.  Raises (``ValueError`` / ``KeyError`` /
    ``TypeError``) on anything malformed — :meth:`ResultCache.get_record`
    uses this as the unit validity check, mapping failures to its
    ``corrupt`` counter.
    """
    if record["repro_cache"] != CACHE_FORMAT:
        raise ValueError("cache format mismatch")
    solved = np.asarray(record["solved"], dtype=bool)
    # float() also decodes the "inf" tokens _encode_value writes.
    floats = [
        np.array([float(v) for v in record[name]], dtype=float)
        for name in ("failure", "objective_values", "period", "latency")
    ]
    if any(a.shape != (n_points,) for a in (solved, *floats)):
        raise ValueError("cache entry shape mismatch")
    info = record.get("info")
    if info is not None and not isinstance(info, dict):
        raise ValueError("cache entry info mismatch")
    return UnitResults(solved[None], *(a[None] for a in floats), [info])


def _encode_value(value: float) -> "float | str":
    """JSON-safe float encoding for record values (inf -> "inf")."""
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def resolve_cache(
    cache: "ResultCache | str | os.PathLike[str] | None",
) -> "ResultCache | None":
    """Normalize a harness ``cache`` argument.

    ``None`` falls back to ``$REPRO_CACHE_DIR`` (no cache when unset); a
    path becomes a :class:`ResultCache`; an existing cache passes
    through (so callers can share one counter across sweeps).
    """
    if isinstance(cache, ResultCache):
        return cache
    root = cache_root(cache)
    return None if root is None else ResultCache(root)
