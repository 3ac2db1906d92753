"""Seeded random-number plumbing.

All randomness in the library flows through :class:`numpy.random.Generator`
objects so that every experiment, test, and benchmark is reproducible from
a single integer seed.  This module centralizes the (tiny amount of) policy:
how user-facing ``seed`` arguments are turned into generators and how
independent child streams are derived.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["ensure_rng", "spawn", "spawn_seeds", "stable_seed"]

RngLike = "int | None | np.random.Generator | np.random.SeedSequence"


def ensure_rng(seed: "int | None | np.random.Generator | np.random.SeedSequence" = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an integer seed, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged, so
    callers can thread one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """Draw *n* integer seeds for independent child streams from *rng*.

    Exposed separately from :func:`spawn` for callers that key work by
    a plain integer: the cross-check gives each instance one seed, so
    an instance's draws depend on its seed alone.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n!r} generators")
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)]


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators from *rng*.

    Used by the experiment harness to give each instance its own stream,
    so adding sweep points never perturbs other instances' draws.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, n)]


def stable_seed(*parts: object) -> int:
    """Derive a deterministic 63-bit seed from a tuple of labels.

    Unlike Python's ``hash`` (salted per process) this is stable across
    process restarts and machines: parts are rendered with ``repr`` and
    digested with SHA-256.  A stochastic registered method seeds itself
    with it from its problem's content (the ``anneal`` method:
    ``stable_seed("anneal", problem.content_hash())``), so it draws the
    same moves whether solved directly, in a serial or pool sweep, or
    in a re-run resumed from the cache.
    """
    digest = hashlib.sha256("\x1f".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
