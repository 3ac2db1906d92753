"""2-PARTITION: exact pseudo-polynomial solver and instance generators.

2-PARTITION (Garey & Johnson SP12): given positive integers
``a_1 .. a_n``, is there a subset ``A'`` with
``sum(A') = sum(A) / 2``?  NP-complete, but solvable in ``O(n * T)``
time by the classic subset-sum dynamic program — which is all the
Theorem 3 reduction tests need.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.rng import ensure_rng

__all__ = ["two_partition_solve", "random_yes_instance", "random_instance"]


def two_partition_solve(values: Sequence[int]) -> list[int] | None:
    """Return indices of a half-sum subset, or ``None`` if none exists.

    Subset-sum DP over reachable sums with parent pointers.

    Examples
    --------
    >>> two_partition_solve([1, 2, 3])
    [0, 1]
    >>> two_partition_solve([1, 2, 5]) is None
    True
    """
    vals = [int(v) for v in values]
    if not vals:
        return []
    if any(v <= 0 for v in vals):
        raise ValueError("2-PARTITION values must be positive integers")
    total = sum(vals)
    if total % 2:
        return None
    target = total // 2
    # parent[s] = (previous sum, item index) for one way to reach s.
    parent: dict[int, tuple[int, int] | None] = {0: None}
    for i, v in enumerate(vals):
        # Iterate a snapshot: each item used at most once.
        for s in list(parent):
            ns = s + v
            if ns <= target and ns not in parent:
                parent[ns] = (s, i)
    if target not in parent:
        return None
    subset: list[int] = []
    s = target
    while parent[s] is not None:
        prev, idx = parent[s]  # type: ignore[misc]
        subset.append(idx)
        s = prev
    return sorted(subset)


def random_yes_instance(  # repro-lint: disable=API001 §6 reduction
    n: int, rng: "int | None | np.random.Generator" = None, high: int = 20
) -> list[int]:
    """Random 2-PARTITION instance guaranteed solvable.

    Draws ``n - 1`` values, then appends whatever balances the halves
    (splitting one value if needed); rejects-and-retries degenerate
    draws.  All values positive.
    """
    if n < 2:
        raise ValueError("need at least two values")
    gen = ensure_rng(rng)
    while True:
        vals = [int(v) for v in gen.integers(1, high, size=n - 1)]
        total = sum(vals)
        # Choose a random subset of the drawn values and add the value
        # that makes that subset half of the new total:
        # need x with subset_sum + x == (total + x) / 2 when x joins the
        # subset's complement... simpler: x = |total - 2 * subset_sum|.
        mask = gen.random(n - 1) < 0.5
        ssum = int(sum(v for v, m in zip(vals, mask) if m))
        x = abs(total - 2 * ssum)
        if x > 0:
            vals.append(x)
            assert two_partition_solve(vals) is not None
            return vals


def random_instance(  # repro-lint: disable=API001 §6 reduction
    n: int, rng: "int | None | np.random.Generator" = None, high: int = 20
) -> list[int]:
    """Uniform random instance (may or may not be solvable)."""
    if n < 1:
        raise ValueError("need at least one value")
    gen = ensure_rng(rng)
    return [int(v) for v in gen.integers(1, high, size=n)]
