"""The result cache: unit entries, their keys and their counters.

The paper's evaluation recomputes the same ``method x instance x
bounds`` solves for every figure, bench, and cross-check run.  This
module gives them a shared, content-addressed store of *unit entries*
(one method's results on one instance over a sweep's points).  It
derives the keys, encodes and decodes the entries and counts the
lookups; the files themselves (``<root>/<key>.json``, in the stamped
envelope every file of a cache directory shares) are read, written,
counted and vacuumed by :mod:`repro.experiments.replay`, beside the
run records a warm ``scenario run`` replays.  It imports no numpy:
only decoding a unit's arrays (:func:`unit_arrays`) does.

A unit key is ``sha256(CACHE_FORMAT, method name, instance digest,
objective fields, per-point bound tokens, method fingerprint)``.  The
instance digest (:func:`repro.core.ensemble.instance_digest`) hashes
raw array bytes, so a warm sweep over an ensemble builds no model
object and an ensemble sweep and its materialized twin share entries.
The fingerprint carries the source digest, so editing any module
moves every key.  A unit entry holds::

    {"repro_cache": CACHE_FORMAT, "source": ..., "method": ...,
     "n_points": ..., "solved": [...bools...], "failure": [...floats...],
     "objective_values": [...floats...],
     "period": [...floats...], "latency": [...floats...],
     "info": {...}}                      # only when the method reports one

``objective_values`` holds each point's achieved objective value, and
``period``/``latency`` the witness mapping's worst-case values
(``"inf"`` where unsolved), which :func:`repro.solve.derive_bounds_grid`
reads off its probe units.  A damaged entry is a corrupt miss: the
unit recomputes and its store replaces the file.  ``$REPRO_CACHE_DIR``
is the default directory when none is given (:func:`resolve_cache`);
unset means no cache.
"""

from __future__ import annotations

import functools
import os
import pathlib
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.experiments import replay
from repro.obs import telemetry as obs
from repro.util.hashing import content_hash, encode_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.result import UnitResults

__all__ = [
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
        (undecodable, another stamp, wrong shape).  Every corrupt lookup
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
        return self.root / f"{key}{replay.ENTRY_SUFFIX}"

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
            "repro_cache": replay.CACHE_FORMAT,
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

    # -- reading and writing ---------------------------------------------

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
        so no hit is decoded twice.  Without it the hit is the stored
        envelope.  A corrupt entry (:func:`repro.experiments.replay.read_file`)
        counts as a miss *and* a :attr:`corrupt` lookup, and is
        discarded, so the recomputed unit overwrites it.

        *method_name* labels the telemetry counters
        (``cache.hit[heur-l]``, ...) when a collector is installed —
        the per-method cache breakdown run manifests report.
        """
        decode = None if n_points is None else functools.partial(unit_arrays, n_points=n_points)
        payload = replay.read_file(self.path(key), decode)
        if payload is None or payload is replay.CORRUPT:
            self.misses += 1
            if payload is None:
                obs.counter("cache.miss", label=method_name)
            else:
                self.corrupt += 1
                obs.counter("cache.corrupt", label=method_name)
            return None
        self.hits += 1
        obs.counter("cache.hit", label=method_name)
        return payload

    def put_record(self, key: str, record: dict) -> None:
        """Store a JSON-able record (for sweep units, built by
        :func:`unit_record`) in its stamped envelope, atomically."""
        replay.write_file(self.path(key), record)
        self.puts += 1

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

    def scan(self) -> "Iterator[tuple[str, str]]":
        """Yield every ``(key, entry_text)`` in sorted key order."""
        return replay.scan(self.root)

    def storage_stats(self) -> dict:
        """Persistent on-disk totals — meaningful without a live sweep,
        unlike the process-local :meth:`stats`; what ``repro cache
        stats`` reports (:func:`repro.experiments.replay.storage_stats`)."""
        return replay.storage_stats(self.root)

    def vacuum(self) -> dict:
        """Remove what no run of this package reads (``repro cache
        vacuum``, :func:`repro.experiments.replay.vacuum`)."""
        return replay.vacuum(self.root)

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


def unit_record(results: "UnitResults", r: int, method_name: str = "") -> dict:
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
        "objective_values": [encode_bound(v) for v in results.values[r]],
        "period": [encode_bound(v) for v in results.period[r]],
        "latency": [encode_bound(v) for v in results.latency[r]],
    }
    if results.infos[r] is not None:
        record["info"] = results.infos[r]
    return record


def unit_arrays(record: dict, n_points: int) -> "UnitResults":
    """Decode a sweep-unit record into a one-row :class:`UnitResults`.

    A record missing any array (or whose arrays do not hold *n_points*
    entries) is malformed.  Raises (``ValueError`` / ``KeyError`` /
    ``TypeError``) on anything malformed — :meth:`ResultCache.get_record`
    uses this as the unit validity check, mapping failures to its
    ``corrupt`` counter.  The only numpy user of this module.
    """
    import numpy as np

    from repro.algorithms.result import UnitResults

    solved = np.asarray(record["solved"], dtype=bool)
    # float() also decodes the "inf" tokens encode_bound writes.
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


def resolve_cache(
    cache: "ResultCache | str | os.PathLike[str] | None",
) -> "ResultCache | None":
    """Normalize a ``cache`` argument.

    ``None`` falls back to ``$REPRO_CACHE_DIR`` (no cache when unset,
    :func:`repro.experiments.replay.cache_root`); a path becomes a
    :class:`ResultCache`; an existing cache passes through (so callers
    can share one counter across sweeps).
    """
    if isinstance(cache, ResultCache):
        return cache
    root = replay.cache_root(cache)
    return None if root is None else ResultCache(root)
