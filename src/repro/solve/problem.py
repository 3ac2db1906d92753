"""The first-class optimization problem of the paper's Section 3.

Every solver in this repository answers the same question: *given a
task chain, a platform, a period bound P, and a latency bound L, which
mapping maximizes reliability?*  Historically that question travelled
as a bare positional tuple ``(chain, platform, max_period,
max_latency)`` — re-spelled at ~60 call sites across the registry, the
harness, the cache, the cross-check, and the CLI.  :class:`Problem`
makes the question an object:

* **frozen** — a problem is a value, safe to share across threads,
  worker processes, and caches;
* **content-hashable** — :meth:`Problem.content_hash` is a stable
  SHA-256 over the canonical JSON encoding, identical across process
  restarts and machines; the result cache derives its unit keys from
  these hashes;
* **serializable** — round-trips through :mod:`repro.io` (``type:
  "Problem"``), including unbounded (infinite) bounds, so problems can
  ship to worker processes or live in files.

Benoit et al.'s companion work on bi-criteria pipeline mappings frames
the experimental search as a *family* of bounded problems swept over a
(P, L) grid; :meth:`with_bounds` is the one-liner that materializes
that family from a base instance (see
:func:`repro.solve.grid.derive_bounds_grid`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from repro.core.chain import TaskChain
from repro.core.platform import Platform
from repro.solve.objectives import OBJECTIVES
from repro.util.hashing import encode_bound
from repro.util.logrel import from_reliability
from repro.util.validation import check_bound, check_min_reliability

__all__ = ["OBJECTIVES", "Problem"]


@dataclass(frozen=True)
class Problem:
    """One Section 3 instance: what to map, onto what, within which bounds.

    Attributes
    ----------
    chain:
        The pipelined application (a linear task chain).
    platform:
        The distributed platform (processors, links, replication cap).
    max_period, max_latency:
        The real-time bounds P and L; ``inf`` (the default) leaves the
        corresponding criterion unbounded.
    objective:
        What to optimize within the bounds (see :data:`OBJECTIVES`).
        ``"reliability"`` maximizes reliability; ``"period"``,
        ``"latency"``, and ``"energy"`` minimize their criterion
        subject to the remaining bounds and the reliability floor.
    min_reliability:
        Reliability floor in ``[0, 1)`` for the converse objectives:
        a mapping is feasible only if its reliability is at least this
        value.  ``0.0`` (the default) means "no floor".  Meaningless —
        and therefore rejected — for ``objective="reliability"``, where
        reliability is the criterion being maximized, not a constraint.
    """

    chain: TaskChain
    platform: Platform
    max_period: float = math.inf
    max_latency: float = math.inf
    objective: str = "reliability"
    min_reliability: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.chain, TaskChain):
            raise TypeError(f"chain must be a TaskChain, got {type(self.chain).__name__}")
        if not isinstance(self.platform, Platform):
            raise TypeError(f"platform must be a Platform, got {type(self.platform).__name__}")
        for name in ("max_period", "max_latency"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, check_bound(name, value))
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; supported: {OBJECTIVES}"
            )
        floor = self.min_reliability
        if isinstance(floor, bool) or not isinstance(floor, (int, float)):
            raise ValueError(f"min_reliability must be a number, got {floor!r}")
        object.__setattr__(
            self, "min_reliability", check_min_reliability(floor, self.objective)
        )

    # -- structure -------------------------------------------------------

    @property
    def bounded(self) -> bool:
        """True when at least one of the (P, L) bounds is finite."""
        return math.isfinite(self.max_period) or math.isfinite(self.max_latency)

    @property
    def homogeneous(self) -> bool:
        """True when the platform is homogeneous (Section 5 scope)."""
        return self.platform.homogeneous

    @property
    def n_tasks(self) -> int:
        return self.chain.n

    @property
    def p(self) -> int:
        return self.platform.p

    @property
    def min_log_reliability(self) -> float:
        """The reliability floor as a log-probability (``-inf`` = none).

        The internal currency of every solver (see
        :mod:`repro.util.logrel`); ``min_reliability`` stays a plain
        probability at the API boundary because that is what users
        state floors in.
        """
        return from_reliability(self.min_reliability)

    def replace(self, **changes: Any) -> "Problem":
        """A copy with the given fields replaced (validated anew).

        The ergonomic spelling of objective switches::

            solve(problem.replace(objective="period", min_reliability=0.99))
        """
        return dataclasses.replace(self, **changes)

    def with_bounds(
        self,
        max_period: "float | None" = None,
        max_latency: "float | None" = None,
    ) -> "Problem":
        """A copy with one or both bounds replaced (``None`` keeps).

        The workhorse of grid sweeps: one base instance fans out into a
        family of bounded problems sharing chain and platform objects.
        """
        return dataclasses.replace(
            self,
            max_period=self.max_period if max_period is None else max_period,
            max_latency=self.max_latency if max_latency is None else max_latency,
        )

    def unbounded(self) -> "Problem":
        """The same instance with both bounds lifted."""
        return self.with_bounds(math.inf, math.inf)

    # -- identity --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Encode as the tagged payload consumed by ``repro.io``."""
        from repro.io import to_dict

        return {
            "type": "Problem",
            "chain": to_dict(self.chain),
            "platform": to_dict(self.platform),
            "max_period": encode_bound(self.max_period),
            "max_latency": encode_bound(self.max_latency),
            "objective": self.objective,
            "min_reliability": self.min_reliability,
        }

    def content_hash(self) -> str:
        """Stable SHA-256 of the problem content (cached per object).

        Equal problems hash equal across process restarts — unlike
        ``hash()``, which Python salts per process — which is what lets
        the result cache key units by problem identity.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            from repro.io import content_hash, to_dict

            # Hash the full io encoding (format stamp included), so
            # content_hash(problem) and problem.content_hash() agree.
            cached = content_hash(to_dict(self))
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def __hash__(self) -> int:
        return hash(self.content_hash())

    def __repr__(self) -> str:
        bounds = (
            f"P<={self.max_period:g}, L<={self.max_latency:g}"
            if self.bounded
            else "unbounded"
        )
        floor = f", r>={self.min_reliability:g}" if self.min_reliability > 0.0 else ""
        return (
            f"Problem({self.chain.n} tasks on {self.platform.p} procs, "
            f"{bounds}, objective={self.objective!r}{floor})"
        )
