"""Columnar instance ensembles: struct-of-arrays storage with lazy rows.

The paper's experiments (Section 8) and the scenario sweeps evaluate
thousands of ``(chain, platform)`` instances per curve.  Materializing
one :class:`~repro.core.chain.TaskChain` and one
:class:`~repro.core.platform.Platform` per draw makes per-instance
object construction and per-object hashing the hot path long before any
solver runs — the scaling bottleneck named by the ROADMAP after the
draw-level vectorization of the scenario layer.

:class:`Ensemble` stores a whole ensemble as a handful of 2-D arrays
(struct of arrays, one row per instance)::

    work           (m, n)   task work amounts w_i
    output         (m, n)   task output sizes o_i (last column 0)
    speeds         (m*, p)  processor speeds s_u
    failure_rates  (m*, p)  processor failure rates lambda_u

plus one scalar column each for the link bandwidth, the link failure
rate, and the replication bound K (homogeneous across the ensemble, as
in every scenario spec).  ``m*`` is 1 when all instances share one
platform (the Section 8.1 shape) — the single stored row broadcasts,
and every row then shares one cached :class:`Platform` object.

A row is addressed by its index.  Rows materialize *lazily*:
:meth:`Ensemble.chain` and :meth:`Ensemble.platform` build (and cache)
one row's objects on first access, and ``ensemble[i]`` is the pair
``(ensemble.chain(i), ensemble.platform(i))``.  Cheap consumers (cache
keys, column reads, the kernels) take the index and never touch the
objects, so a sweep served from a warm result cache never constructs a
single ``TaskChain`` or ``Platform``.

Identity is content-addressed at two grains:

* :func:`instance_digest` / :meth:`Ensemble.row_hash` — a stable
  SHA-256 over one instance's raw array bytes and scalars, shared by
  the columnar and the materialized representations (the result cache
  derives its per-unit keys from these);
* :meth:`Ensemble.content_hash` — one digest over the whole ensemble's
  raw arrays, computed once.

Paired (Section 8.2-shaped) ensembles carry ``hom_counterpart_speed``;
their rows hold the heterogeneous side, :attr:`Ensemble.hom_platform`
is the shared homogeneous counterpart, and
:meth:`Ensemble.hom_counterpart` is the whole counterpart ensemble in
columnar form.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

from repro.core.chain import TaskChain
from repro.core.platform import Platform
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "Ensemble",
    "instance_digest",
    "ensembles_from_instances",
]


def _le_bytes(arr: np.ndarray) -> bytes:
    """Raw little-endian float64 bytes (no copy on the usual platforms)."""
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def instance_digest(
    work: np.ndarray,
    output: np.ndarray,
    speeds: np.ndarray,
    failure_rates: np.ndarray,
    bandwidth: float,
    link_failure_rate: float,
    max_replication: int,
) -> str:
    """Stable SHA-256 content digest of one instance.

    Hashes the raw array bytes directly — no JSON encoding, no object
    construction — so an :class:`Ensemble` row and the materialized
    ``(TaskChain, Platform)`` pair built from it digest identically.
    The result cache keys sweep units and grid probes with this (see
    :mod:`repro.experiments.cache`), which is what lets a warm sweep
    skip materialization entirely.
    """
    h = hashlib.sha256(b"repro-instance-v1")
    for arr in (work, output, speeds, failure_rates):
        data = _le_bytes(arr)
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    h.update(
        f"{float(bandwidth)!r}|{float(link_failure_rate)!r}|{int(max_replication)}".encode()
    )
    return h.hexdigest()


class Ensemble:
    """Frozen struct-of-arrays container for an instance ensemble.

    Parameters
    ----------
    work, output:
        ``(m, n)`` arrays of task work amounts (``> 0``) and output
        sizes (``>= 0``) — one row per instance.
    speeds, failure_rates:
        ``(m, p)`` arrays of processor speeds (``> 0``) and failure
        rates (``>= 0``).  A single row is accepted as shorthand for
        "all instances share one platform" and broadcasts.
    bandwidth, link_failure_rate, max_replication:
        The scalar platform columns, shared by the whole ensemble
        (every scenario spec fixes them per concrete variant).
    hom_counterpart_speed:
        When set, the ensemble is *paired* (Section 8.2 shape): every
        instance also has the homogeneous counterpart platform of this
        speed (requires a single common failure rate).
    """

    __slots__ = (
        "_work",
        "_output",
        "_speeds",
        "_rates",
        "_bandwidth",
        "_link_rate",
        "_K",
        "_hom_speed",
        "_chains",
        "_platforms",
        "_shared_platform",
        "_hom_platform",
        "_content_hash",
        "_row_hashes",
        "_hom_rows",
        "_derived",
    )

    def __init__(
        self,
        work,
        output,
        speeds,
        failure_rates,
        bandwidth: float = 1.0,
        link_failure_rate: float = 0.0,
        max_replication: int = 1,
        hom_counterpart_speed: "float | None" = None,
    ) -> None:
        w = np.ascontiguousarray(work, dtype=float)
        o = np.ascontiguousarray(output, dtype=float)
        s = np.atleast_2d(np.ascontiguousarray(speeds, dtype=float))
        lam = np.atleast_2d(np.ascontiguousarray(failure_rates, dtype=float))
        if w.ndim != 2 or w.size == 0:
            raise ValueError(f"work must be a non-empty (m, n) array, got shape {w.shape}")
        if o.shape != w.shape:
            raise ValueError(
                f"work and output must have the same shape, got {w.shape} and {o.shape}"
            )
        if s.ndim != 2 or s.size == 0:
            raise ValueError(f"speeds must be a non-empty (m, p) array, got shape {s.shape}")
        if lam.shape != s.shape:
            raise ValueError(
                f"speeds and failure_rates must have the same shape, "
                f"got {s.shape} and {lam.shape}"
            )
        m = w.shape[0]
        if s.shape[0] not in (1, m):
            raise ValueError(
                f"speeds/failure_rates must have 1 or {m} rows, got {s.shape[0]}"
            )
        for name, arr in (("work", w), ("output", o), ("speeds", s), ("failure_rates", lam)):
            if np.any(~np.isfinite(arr)):
                raise ValueError(f"{name} must contain only finite values")
        if np.any(w <= 0):
            raise ValueError("all work amounts must be > 0")
        if np.any(o < 0):
            raise ValueError("all output sizes must be >= 0")
        if np.any(s <= 0):
            raise ValueError("all processor speeds must be > 0")
        if np.any(lam < 0):
            raise ValueError("all processor failure rates must be >= 0")
        check_positive(bandwidth, "bandwidth")
        check_nonnegative(link_failure_rate, "link_failure_rate")
        if not isinstance(max_replication, (int, np.integer)) or max_replication < 1:
            raise ValueError(
                f"max_replication must be an integer >= 1, got {max_replication!r}"
            )
        if hom_counterpart_speed is not None:
            if not hom_counterpart_speed > 0:
                raise ValueError(
                    f"hom_counterpart_speed must be > 0 (or None), "
                    f"got {hom_counterpart_speed!r}"
                )
            if np.any(lam != lam.flat[0]):
                raise ValueError(
                    "a paired ensemble needs one common processor failure rate "
                    "for the homogeneous counterpart (Section 8.2 keeps "
                    "lambda_u constant)"
                )
        for arr in (w, o, s, lam):
            arr.setflags(write=False)
        self._work = w
        self._output = o
        self._speeds = s
        self._rates = lam
        self._bandwidth = float(bandwidth)
        self._link_rate = float(link_failure_rate)
        self._K = int(max_replication)
        self._hom_speed = None if hom_counterpart_speed is None else float(hom_counterpart_speed)
        # Lazy caches: one chain per row, one platform per platform row
        # (a single shared Platform when the platform rows broadcast).
        self._chains: "list[TaskChain | None]" = [None] * m
        self._platforms: "list[Platform | None]" = [None] * s.shape[0]
        self._shared_platform = s.shape[0] == 1
        self._hom_platform: "Platform | None" = None
        self._content_hash: "str | None" = None
        self._row_hashes: "list[str | None]" = [None] * m
        self._hom_rows: "np.ndarray | None" = None
        self._derived: dict = {}

    # -- dimensions ------------------------------------------------------

    @property
    def n_instances(self) -> int:
        return self._work.shape[0]

    @property
    def n_tasks(self) -> int:
        return self._work.shape[1]

    @property
    def p(self) -> int:
        return self._speeds.shape[1]

    def __len__(self) -> int:
        return self.n_instances

    # -- columns ---------------------------------------------------------

    @property
    def work(self) -> np.ndarray:
        """Read-only ``(m, n)`` work matrix."""
        return self._work

    @property
    def output(self) -> np.ndarray:
        """Read-only ``(m, n)`` output-size matrix."""
        return self._output

    @property
    def speeds(self) -> np.ndarray:
        """Read-only ``(m, p)`` speed matrix (broadcast when shared)."""
        return np.broadcast_to(self._speeds, (self.n_instances, self.p))

    @property
    def failure_rates(self) -> np.ndarray:
        """Read-only ``(m, p)`` failure-rate matrix (broadcast when shared)."""
        return np.broadcast_to(self._rates, (self.n_instances, self.p))

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def link_failure_rate(self) -> float:
        return self._link_rate

    @property
    def max_replication(self) -> int:
        return self._K

    @property
    def hom_counterpart_speed(self) -> "float | None":
        return self._hom_speed

    @property
    def paired(self) -> bool:
        """True for Section 8.2-shaped ensembles (het + hom counterpart)."""
        return self._hom_speed is not None

    @property
    def platform_shared(self) -> bool:
        """True when all instances share one stored platform row."""
        return self._shared_platform

    def homogeneous_rows(self) -> np.ndarray:
        """Boolean ``(m,)`` vector: which rows have homogeneous platforms.

        Vectorized over the columns — no :class:`Platform` objects are
        built.  Broadcast (shared-platform) ensembles answer from the
        single stored row.
        """
        if self._hom_rows is None:
            s, lam = self._speeds, self._rates
            rows = np.all(s == s[:, :1], axis=1) & np.all(lam == lam[:, :1], axis=1)
            hom = np.broadcast_to(rows, (self.n_instances,)) if rows.size == 1 else rows
            hom = np.ascontiguousarray(hom)
            hom.setflags(write=False)
            self._hom_rows = hom
        return self._hom_rows

    def derived(self, key, build):
        """The value ``build()`` returns, built on the first call with
        *key* and kept with the ensemble (the heuristic kernels'
        candidate tables, :func:`repro.algorithms.batch.heuristic_probe_tables`).

        A derived value is a function of the frozen columns only, so
        it is not part of equality, the hashes or a pickle: a copy
        starts without it and rebuilds on demand.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def __getstate__(self):
        return None, {
            name: getattr(self, name) for name in self.__slots__ if name != "_derived"
        }

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._derived = {}

    @property
    def all_homogeneous(self) -> bool:
        """True when every row's platform is homogeneous."""
        return bool(np.all(self.homogeneous_rows()))

    # -- lazy materialization --------------------------------------------

    def chain(self, i: int) -> TaskChain:
        """The row's :class:`TaskChain` (built once, then cached)."""
        i = self._row(i)
        cached = self._chains[i]
        if cached is None:
            cached = TaskChain(work=self._work[i], output=self._output[i])
            self._chains[i] = cached
        return cached

    def platform(self, i: int) -> Platform:
        """The row's :class:`Platform` (cached; one shared object when
        the platform columns broadcast)."""
        i = self._row(i)
        pi = 0 if self._shared_platform else i
        cached = self._platforms[pi]
        if cached is None:
            cached = Platform(
                speeds=self._speeds[pi],
                failure_rates=self._rates[pi],
                bandwidth=self._bandwidth,
                link_failure_rate=self._link_rate,
                max_replication=self._K,
            )
            self._platforms[pi] = cached
        return cached

    @property
    def hom_platform(self) -> Platform:
        """The shared homogeneous counterpart platform (paired only)."""
        if self._hom_speed is None:
            raise ValueError("not a paired ensemble (hom_counterpart_speed unset)")
        if self._hom_platform is None:
            self._hom_platform = Platform.homogeneous_platform(
                self.p,
                speed=self._hom_speed,
                failure_rate=float(self._rates.flat[0]),
                bandwidth=self._bandwidth,
                link_failure_rate=self._link_rate,
                max_replication=self._K,
            )
        return self._hom_platform

    def hom_counterpart(self) -> "Ensemble":
        """The homogeneous-counterpart side as a columnar ensemble.

        Same chains; the platform columns collapse to the single shared
        counterpart row — the shape the het experiments sweep against.
        """
        if self._hom_speed is None:
            raise ValueError("not a paired ensemble (hom_counterpart_speed unset)")
        return Ensemble(
            work=self._work,
            output=self._output,
            speeds=np.full((1, self.p), self._hom_speed),
            failure_rates=np.full((1, self.p), float(self._rates.flat[0])),
            bandwidth=self._bandwidth,
            link_failure_rate=self._link_rate,
            max_replication=self._K,
        )

    def materialize(self) -> list:
        """Materialize every row.

        Returns ``(chain, platform)`` tuples — or
        :class:`~repro.experiments.instances.HetInstancePair` records
        for paired ensembles — exactly the shapes the pre-columnar
        generator produced.
        """
        if self.paired:
            # Lazy: repro.experiments imports the harness, which imports
            # this module during package init.
            from repro.experiments.instances import HetInstancePair

            hom = self.hom_platform
            return [
                HetInstancePair(self.chain(i), self.platform(i), hom)
                for i in range(self.n_instances)
            ]
        return list(self)

    # -- rows ------------------------------------------------------------

    def __getitem__(self, i: int) -> "tuple[TaskChain, Platform]":
        """Row *i* as its ``(chain, platform)`` pair (materialized and
        cached on first access)."""
        return self.chain(i), self.platform(i)

    def __iter__(self) -> "Iterator[tuple[TaskChain, Platform]]":
        for i in range(self.n_instances):
            yield self[i]

    def _row(self, i: int) -> int:
        if not isinstance(i, (int, np.integer)):
            raise TypeError(f"row index must be an integer, got {type(i).__name__}")
        m = self.n_instances
        if i < 0:
            i += m
        if not 0 <= i < m:
            raise IndexError(f"row {i} out of range for {m} instances")
        return int(i)

    # -- identity --------------------------------------------------------

    def row_hash(self, i: int) -> str:
        """Per-instance content digest (cached; see :func:`instance_digest`)."""
        i = self._row(i)
        cached = self._row_hashes[i]
        if cached is None:
            pi = 0 if self._shared_platform else i
            cached = instance_digest(
                self._work[i],
                self._output[i],
                self._speeds[pi],
                self._rates[pi],
                self._bandwidth,
                self._link_rate,
                self._K,
            )
            self._row_hashes[i] = cached
        return cached

    def content_hash(self) -> str:
        """One stable SHA-256 over the whole ensemble's raw arrays."""
        if self._content_hash is None:
            h = hashlib.sha256(b"repro-ensemble-v1")
            for arr in (self._work, self._output, self._speeds, self._rates):
                h.update(np.int64(arr.shape).tobytes())
                h.update(_le_bytes(arr))
                h.update(b"\x1f")
            h.update(
                f"{self._bandwidth!r}|{self._link_rate!r}|{self._K}|{self._hom_speed!r}".encode()
            )
            self._content_hash = h.hexdigest()
        return self._content_hash

    def to_dict(self) -> dict:
        """Encode as the tagged payload consumed by ``repro.io``."""
        return {
            "type": "Ensemble",
            "work": self._work.tolist(),
            "output": self._output.tolist(),
            "speeds": self._speeds.tolist(),
            "failure_rates": self._rates.tolist(),
            "bandwidth": self._bandwidth,
            "link_failure_rate": self._link_rate,
            "max_replication": self._K,
            "hom_counterpart_speed": self._hom_speed,
        }

    # -- construction from materialized instances ------------------------

    @classmethod
    def from_instances(cls, instances: Sequence) -> "Ensemble":
        """Build a columnar ensemble from materialized instances.

        Accepts ``(chain, platform)`` pairs (an ensemble's own rows
        among them) and ``HetInstancePair`` records.  All instances must
        share the chain length, processor count, and scalar platform
        columns — for mixed collections use
        :func:`ensembles_from_instances`, which groups first.
        """
        if not instances:
            raise ValueError("need at least one instance")
        paired = hasattr(instances[0], "het_platform")
        chains, platforms, homs = [], [], []
        for inst in instances:
            if hasattr(inst, "het_platform"):
                chains.append(inst.chain)
                platforms.append(inst.het_platform)
                homs.append(inst.hom_platform)
            else:
                chain, platform = inst
                chains.append(chain)
                platforms.append(platform)
        n = chains[0].n
        first = platforms[0]
        if any(c.n != n for c in chains) or any(
            (
                pl.p != first.p
                or pl.bandwidth != first.bandwidth
                or pl.link_failure_rate != first.link_failure_rate
                or pl.max_replication != first.max_replication
            )
            for pl in platforms
        ):
            raise ValueError(
                "instances mix chain lengths or platform profiles; "
                "use ensembles_from_instances() to group them first"
            )
        hom_speed = None
        if paired:
            if any(h != homs[0] for h in homs) or not homs[0].homogeneous:
                raise ValueError(
                    "paired instances must share one homogeneous counterpart platform"
                )
            hom_speed = float(homs[0].speeds[0])
        speeds = np.stack([pl.speeds for pl in platforms])
        rates = np.stack([pl.failure_rates for pl in platforms])
        if len(platforms) > 1 and np.all(speeds == speeds[0]) and np.all(rates == rates[0]):
            speeds, rates = speeds[:1], rates[:1]
        ensemble = cls(
            work=np.stack([c.work for c in chains]),
            output=np.stack([c.output for c in chains]),
            speeds=speeds,
            failure_rates=rates,
            bandwidth=first.bandwidth,
            link_failure_rate=first.link_failure_rate,
            max_replication=first.max_replication,
            hom_counterpart_speed=hom_speed,
        )
        # The materialized objects are already on hand — seed the caches
        # so round-tripping costs no reconstruction.
        ensemble._chains = list(chains)
        if ensemble._shared_platform:
            ensemble._platforms = [platforms[0]]
        else:
            ensemble._platforms = list(platforms)
        if paired:
            ensemble._hom_platform = homs[0]
        return ensemble

    # -- dunder conveniences ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ensemble):
            return NotImplemented
        return bool(
            np.array_equal(self._work, other._work)
            and np.array_equal(self._output, other._output)
            and np.array_equal(self.speeds, other.speeds)
            and np.array_equal(self.failure_rates, other.failure_rates)
            and self._bandwidth == other._bandwidth
            and self._link_rate == other._link_rate
            and self._K == other._K
            and self._hom_speed == other._hom_speed
        )

    def __hash__(self) -> int:
        return hash(self.content_hash())

    def __repr__(self) -> str:
        shared = ", shared platform" if self._shared_platform else ""
        paired = f", paired(hom speed {self._hom_speed:g})" if self.paired else ""
        return (
            f"Ensemble({self.n_instances} instances, {self.n_tasks} tasks x "
            f"{self.p} procs{shared}{paired})"
        )


def ensembles_from_instances(instances: Sequence) -> "list[Ensemble]":
    """Group materialized instances into columnar ensembles.

    Consecutive instances sharing a profile (chain length, processor
    count, scalar platform columns) land in one :class:`Ensemble`;
    iterating the returned ensembles' rows in order reproduces the
    input order exactly.  Already-columnar inputs pass through.
    """
    if isinstance(instances, Ensemble):
        return [instances]
    instances = list(instances)
    if instances and all(isinstance(e, Ensemble) for e in instances):
        return instances
    groups: "list[list]" = []
    profile = None
    for inst in instances:
        if hasattr(inst, "het_platform"):
            chain, platform = inst.chain, inst.het_platform
        else:
            chain, platform = inst
        key = (
            type(inst).__name__,
            chain.n,
            platform.p,
            platform.bandwidth,
            platform.link_failure_rate,
            platform.max_replication,
        )
        if key != profile:
            groups.append([])
            profile = key
        groups[-1].append(inst)
    return [Ensemble.from_instances(group) for group in groups]
