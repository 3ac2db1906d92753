"""On-disk result cache for bound sweeps — pluggable storage backends.

The paper's evaluation recomputes the same ``method x instance x
bounds`` solves for every figure, bench, and cross-check run.  This
package gives them a shared, content-addressed store so a sweep
computed once is free forever after.

Architecture
------------
:class:`ResultCache` owns the *meaning* of the cache — key derivation,
record validation, corrupt-entry recovery, hit/miss counters — and
delegates bytes-at-rest to a :class:`~repro.experiments.cache.backend.CacheBackend`:

* :class:`~repro.experiments.cache.filetree.FileTreeBackend`
  (``kind="files"``, the default) — one JSON file per key under
  ``<root>/<key[:2]>/<key>.json``, atomic via mkstemp + ``os.replace``;
* :class:`~repro.experiments.cache.sqlite.SQLiteBackend`
  (``kind="sqlite"``) — a single ``<root>/cache.db`` in WAL mode with
  ``BEGIN IMMEDIATE`` writers and a ``schema_version`` table, built
  for fleets of concurrent sweep processes.

Both persist identical bytes (sorted-keys CACHE_FORMAT JSON), so keys
*and* record payloads are bit-identical across backends and
:func:`migrate_cache` / ``repro cache migrate`` can verify a switch by
row digest.  Backend choice: ``ResultCache(root, backend=...)``
explicitly, else whatever store already lives under ``root``, else
``$REPRO_CACHE_BACKEND``, else the file tree (see
:func:`resolve_backend`).

Keys
----
``key = sha256(method name, instance digest, objective fields,
per-point bound tokens, seed, package version)`` via
:func:`repro.io.content_hash`.  The *instance digest*
(:func:`repro.core.ensemble.instance_digest`) is a raw-array-bytes
hash shared by the columnar :class:`~repro.core.ensemble.Ensemble`
rows and materialized ``(chain, platform)`` pairs — deriving keys from
it means a warm sweep over an ensemble never builds a model object or
a JSON payload, and an ensemble sweep and its materialized twin hit
the exact same entries.  Keys are stable across process restarts, and
automatically invalidated when any ingredient (chain, platform,
bounds, objective, method identity, per-unit seed, repro release)
changes, because a different key simply never matches.  Each entry
holds::

    {"repro_cache": CACHE_FORMAT, "method": ..., "n_points": ...,
     "solved": [...bools...], "failure": [...floats...],
     "objective_values": [...floats...]}

``objective_values`` records each point's achieved objective value
(:meth:`repro.algorithms.result.SolveResult.objective_value`) so the
sweep aggregations can report quantiles of the optimum, not just
solved counts.

Next to sweep units the cache also stores **grid-probe records**
(:meth:`ResultCache.put_record` under :meth:`ResultCache.probe_key`):
the per-instance unbounded-solve scalars
:func:`repro.solve.derive_bounds_grid` needs, so ``--grid auto`` is
free on a warm cache.

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
``REPRO_CACHE_BACKEND``
    Backend for *fresh* cache directories: ``files`` (default) or
    ``sqlite``.  A directory already holding a store keeps its backend
    regardless — switching is an explicit ``repro cache migrate``.

Statistics (:attr:`ResultCache.hits` / ``misses`` / ``puts`` /
``corrupt``) feed the run manifest written by ``python -m repro
experiment``; persistent on-disk totals come from the backend via
:meth:`ResultCache.storage_stats` (``repro cache stats``).
"""

from __future__ import annotations

import math
import os
import pathlib
from typing import Sequence

import numpy as np

from repro.core.ensemble import instance_digest
from repro.experiments.cache.backend import (
    CacheBackend,
    detect_backend_kind,
    make_backend,
)
from repro.experiments.cache.filetree import FileTreeBackend
from repro.experiments.cache.migrate import migrate_cache
from repro.experiments.cache.sqlite import SQLiteBackend
from repro.io import content_hash
from repro.obs import telemetry as obs
from repro.solve.problem import Problem, encode_bound

__all__ = [
    "CACHE_FORMAT",
    "CacheBackend",
    "FileTreeBackend",
    "ResultCache",
    "SQLiteBackend",
    "migrate_cache",
    "resolve_backend",
    "resolve_cache",
    "unit_arrays",
    "unit_record",
]

#: Bumped to 2 with the :mod:`repro.solve` redesign (keys derived from
#: per-point Problem content hashes), to 3 with the tri-criteria facade
#: (objective/floor fields in every Problem payload, grid-probe
#: records), and to 4 with the columnar ensemble core: keys are now
#: derived from raw-array *instance digests* instead of JSON Problem
#: payload hashes, and entries carry per-point achieved objective
#: values.  The one-release format-3 legacy-read path was removed in
#: 1.4.0; pre-columnar entries simply miss and recompute.  Storage
#: layout is versioned separately per backend (the SQLite backend's
#: ``schema_version`` table).
CACHE_FORMAT = 4


class ResultCache:
    """Content-addressed store of per-unit sweep results.

    Parameters
    ----------
    root:
        Cache directory (created on first write).  Optional when an
        instantiated *backend* is given.
    backend:
        Storage backend: a :class:`CacheBackend` instance, a kind
        token (``"files"`` / ``"sqlite"``) to open at *root*, or None
        to auto-select via :func:`resolve_backend`.

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

    def __init__(
        self,
        root: "str | os.PathLike[str] | None" = None,
        backend: "CacheBackend | str | None" = None,
    ) -> None:
        if backend is None:
            if root is None:
                raise TypeError("ResultCache() needs a root directory or a backend")
            backend = resolve_backend(root)
        elif isinstance(backend, str):
            if root is None:
                raise TypeError(
                    f"ResultCache(backend={backend!r}) needs a root directory"
                )
            backend = make_backend(backend, root)
        self.backend = backend
        self.root = pathlib.Path(backend.root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    # -- keys ------------------------------------------------------------

    def unit_key_for(
        self,
        method_name: str,
        base_digest: str,
        bounds: Sequence[tuple[float, float]],
        seed: "int | None" = None,
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

        The package version and the method's implementation
        *fingerprint* (:meth:`Method.fingerprint`) are part of the
        key, so neither a solver fix in a new release nor an edited or
        re-registered method ever replays stale arrays from a shared
        cache directory.

        When the sweep was materialized from a declarative scenario,
        *scenario* carries the spec's content hash
        (:func:`repro.scenarios.scenario_hash`) and becomes part of the
        key: two workloads that happen to generate an identical
        instance still keep separate entries, and editing a spec's
        generative fields can never replay arrays computed for the old
        workload.

        Keys are backend-independent: the same unit resolves to the
        same key in a file tree and in a ``cache.db``.
        """
        from repro import __version__

        ingredients = {
            "repro_cache": CACHE_FORMAT,
            "repro_version": __version__,
            "method": method_name,
            "fingerprint": fingerprint,
            "seed": seed,
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

    def unit_key(
        self,
        method_name: str,
        problems: Sequence[Problem],
        seed: "int | None" = None,
        fingerprint: "str | None" = None,
        scenario: "str | None" = None,
    ) -> str:
        """:meth:`unit_key_for` spelled over a materialized Problem family.

        The family shares one instance (chain + platform + objective);
        each member contributes its (P, L) bounds.  Produces exactly
        the key an :class:`~repro.core.ensemble.Ensemble`-driven sweep
        derives for the same instance — the bit-identity contract
        between the columnar and materialized paths.
        """
        if not problems:
            raise ValueError("a work unit needs at least one Problem")
        base = problems[0]
        return self.unit_key_for(
            method_name,
            _pair_digest(base.chain, base.platform),
            [(p.max_period, p.max_latency) for p in problems],
            seed=seed,
            fingerprint=fingerprint,
            scenario=scenario,
            objective=base.objective,
            min_reliability=base.min_reliability,
        )

    def probe_key_for(
        self,
        method_name: str,
        base_digest: str,
        fingerprint: "str | None" = None,
    ) -> str:
        """Content hash identifying one grid-probe solve's record.

        :func:`repro.solve.derive_bounds_grid` solves every ensemble
        instance once, unbounded, and keeps the solution's worst-case
        period and latency — scalars a sweep unit does not store.  The
        probe key addresses that record: same ingredients as
        :meth:`unit_key_for` (method identity, package version, the
        instance digest) under a distinct ``kind`` tag, so probe
        records and sweep units can never collide.
        """
        from repro import __version__

        return content_hash(
            {
                "repro_cache": CACHE_FORMAT,
                "repro_version": __version__,
                "kind": "grid-probe",
                "method": method_name,
                "fingerprint": fingerprint,
            },
            base_digest,
        )

    def probe_key(
        self,
        method_name: str,
        problem: Problem,
        fingerprint: "str | None" = None,
    ) -> str:
        """:meth:`probe_key_for` spelled over a materialized Problem."""
        return self.probe_key_for(
            method_name,
            _pair_digest(problem.chain, problem.platform),
            fingerprint=fingerprint,
        )

    # -- lookup / store --------------------------------------------------

    def get_record(
        self,
        key: str,
        method_name: "str | None" = None,
        n_points: "int | None" = None,
    ) -> "dict | None":
        """Return the record stored under *key*, or None on a miss.

        The one lookup path for sweep units and grid probes alike.
        With *n_points* the record must additionally decode as a sweep
        unit of that many points (:func:`unit_arrays`) before it counts
        as a hit.  A malformed entry — undecodable bytes, wrong format
        stamp, wrong shape — counts as a miss *and* a :attr:`corrupt`
        lookup and is discarded, so the recomputed unit overwrites it.

        *method_name* labels the telemetry counters
        (``cache.hit[heur-l]``, ...) when a collector is installed —
        the per-method cache breakdown run manifests report.  The
        backend-kind twin counters (``cache.backend.hit[sqlite]``, ...)
        are emitted alongside.
        """
        try:
            payload = self.backend.load(key)
            if payload is not None:
                if payload.get("repro_cache") != CACHE_FORMAT:
                    raise ValueError("cache format mismatch")
                if n_points is not None:
                    unit_arrays(payload, n_points)
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupted entry: recover by dropping it and recomputing.
            self.misses += 1
            self.corrupt += 1
            obs.counter("cache.corrupt", label=method_name)
            obs.counter("cache.backend.corrupt", label=self.backend.kind)
            self.backend.discard(key)
            return None
        if payload is None:
            self.misses += 1
            obs.counter("cache.miss", label=method_name)
            obs.counter("cache.backend.miss", label=self.backend.kind)
            return None
        self.hits += 1
        obs.counter("cache.hit", label=method_name)
        obs.counter("cache.backend.hit", label=self.backend.kind)
        return payload

    def put_record(self, key: str, record: dict) -> None:
        """Store a JSON-able record atomically.

        The format stamp is added here; everything else is the
        caller's payload (for sweep units, built by :func:`unit_record`).
        Atomicity is the backend's: temp file + rename for the file
        tree, an immediate transaction for SQLite — either way a
        concurrent reader never observes a torn entry.
        """
        self.backend.store(key, {"repro_cache": CACHE_FORMAT, **record})
        self.puts += 1
        obs.counter("cache.backend.put", label=self.backend.kind)

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

    def storage_stats(self) -> dict:
        """Persistent on-disk totals from the backend (entry count,
        bytes, and for SQLite the schema version) — meaningful without
        a live sweep, unlike the process-local :meth:`stats`."""
        return self.backend.storage_stats()

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
        return (
            f"ResultCache({str(self.root)!r}, backend={self.backend.kind!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def unit_record(
    solved: np.ndarray,
    failure: np.ndarray,
    objective_values: np.ndarray,
    method_name: str = "",
    info: "dict | None" = None,
) -> dict:
    """Build the canonical sweep-unit record from result arrays.

    *info* carries the unit's solve-detail record (search probe totals,
    a convergence flag) when the method reported one, so a warm run's
    ledger still attributes convergence per unit.  Entries without one
    omit the field entirely — the batched and per-row paths keep
    writing byte-identical payloads for methods that report no details.
    """
    record = {
        "method": method_name,
        "n_points": int(len(solved)),
        "solved": [bool(s) for s in solved],
        "failure": [float(f) for f in failure],
        "objective_values": [_encode_value(v) for v in objective_values],
    }
    if info is not None:
        record["info"] = info
    return record


def unit_arrays(
    record: dict, n_points: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict | None]":
    """Decode a sweep-unit record into ``(solved, failure,
    objective_values, info)`` arrays.

    ``info`` is the per-unit solve detail record when present.  A
    record without objective values is malformed.  Raises
    (``ValueError`` / ``KeyError`` / ``TypeError``) on anything
    malformed — :meth:`ResultCache.get_record` uses this as the unit
    validity check, mapping failures to its ``corrupt`` counter.
    """
    if record["repro_cache"] != CACHE_FORMAT:
        raise ValueError("cache format mismatch")
    solved = np.asarray(record["solved"], dtype=bool)
    failure = np.asarray(record["failure"], dtype=float)
    if solved.shape != (n_points,) or failure.shape != (n_points,):
        raise ValueError("cache entry shape mismatch")
    if record.get("objective_values") is None:
        raise ValueError("cache entry has no objective values")
    # float() also decodes the "inf" tokens _encode_value writes.
    objective_values = np.array(
        [float(v) for v in record["objective_values"]], dtype=float
    )
    if objective_values.shape != (n_points,):
        raise ValueError("cache entry shape mismatch")
    info = record.get("info")
    if info is not None and not isinstance(info, dict):
        raise ValueError("cache entry info mismatch")
    return solved, failure, objective_values, info


def _pair_digest(chain, platform) -> str:
    """A materialized pair's :func:`instance_digest` — the one digest
    spelling shared by unit keys and probe keys, so the two can never
    drift apart ingredient-wise."""
    return instance_digest(
        chain.work,
        chain.output,
        platform.speeds,
        platform.failure_rates,
        platform.bandwidth,
        platform.link_failure_rate,
        platform.max_replication,
    )


def _encode_value(value: float) -> "float | str":
    """JSON-safe float encoding for objective values (inf -> "inf")."""
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def resolve_backend(
    root: "str | os.PathLike[str]", kind: "str | None" = None
) -> CacheBackend:
    """Pick the storage backend for the store at *root*.

    Precedence: explicit *kind* > whatever store already lives on disk
    (a ``cache.db`` means sqlite, fan-out entries mean files) >
    ``$REPRO_CACHE_BACKEND`` > the file tree.  On-disk state outranks
    the environment so flipping ``$REPRO_CACHE_BACKEND`` never silently
    cold-starts an existing store — switching backends is an explicit
    ``repro cache migrate``.
    """
    if kind is None:
        kind = detect_backend_kind(root)
    if kind is None:
        kind = os.environ.get("REPRO_CACHE_BACKEND") or "files"
    return make_backend(kind, root)


def resolve_cache(
    cache: "ResultCache | str | os.PathLike[str] | None",
) -> "ResultCache | None":
    """Normalize a harness ``cache`` argument.

    ``None`` falls back to ``$REPRO_CACHE_DIR`` (no cache when unset); a
    path becomes a :class:`ResultCache` (backend via
    :func:`resolve_backend`); an existing cache passes through (so
    callers can share one counter across sweeps).
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is None:
        env = os.environ.get("REPRO_CACHE_DIR")
        if not env:
            return None
        cache = env
    return ResultCache(cache)
