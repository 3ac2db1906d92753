"""The n-way equal-sum partition problem behind Theorem 5.

The paper's "3-PARTITION" instance (Section 6) asks: given ``3n``
numbers summing to ``n * T``, do there exist ``n`` pairwise-disjoint
subsets each summing to ``T``?  (Subset sizes are unconstrained in the
proof — it is the reduction that ensures three replicas per task via
``K = 3``.)  This solver finds such a partition by backtracking with
standard symmetry-breaking pruning; exponential in general, instant at
test sizes.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["n_way_partition_solve"]


def n_way_partition_solve(  # repro-lint: disable=API001 §6 reduction
    values: Sequence[int], n_groups: int
) -> list[list[int]] | None:
    """Partition index set into *n_groups* groups of equal value sums.

    Returns the groups as lists of indices into *values*, or ``None``.

    Examples
    --------
    >>> n_way_partition_solve([1, 2, 3, 4, 5, 9], 2)
    [[2, 5], [0, 1, 3, 4]]
    >>> n_way_partition_solve([1, 1, 1, 5], 2) is None
    True
    """
    vals = [int(v) for v in values]
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if any(v <= 0 for v in vals):
        raise ValueError("values must be positive integers")
    total = sum(vals)
    if total % n_groups:
        return None
    target = total // n_groups
    if any(v > target for v in vals):
        return None

    # Sort descending for fail-fast packing; remember original indices.
    order = sorted(range(len(vals)), key=lambda i: -vals[i])
    sums = [0] * n_groups
    groups: list[list[int]] = [[] for _ in range(n_groups)]

    def place(k: int) -> bool:
        if k == len(order):
            return all(s == target for s in sums)
        idx = order[k]
        v = vals[idx]
        seen: set[int] = set()
        for g in range(n_groups):
            if sums[g] + v > target or sums[g] in seen:
                # Symmetry breaking: identical current sums are
                # interchangeable; try only one of them.
                seen.add(sums[g])
                continue
            seen.add(sums[g])
            sums[g] += v
            groups[g].append(idx)
            if place(k + 1):
                return True
            sums[g] -= v
            groups[g].pop()
        return False

    if not place(0):
        return None
    return [sorted(g) for g in groups]
