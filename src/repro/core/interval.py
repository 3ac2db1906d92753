"""Intervals of consecutive tasks and chain partitions (Section 2.3).

An *interval mapping* divides the chain into ``m`` intervals of
consecutive tasks.  We represent an interval with Python half-open
semantics ``[start, stop)`` over 0-based task indices; the paper's
interval ``I_j = (f_j .. l_j)`` (1-based, inclusive) is
``Interval(f_j - 1, l_j)`` here.

A *partition* of a chain of ``n`` tasks is a list of contiguous intervals
whose union is ``[0, n)``; equivalently, a set of *cut points* after
selected tasks.  Helpers here enumerate partitions (compositions of
``n``) and convert between the two representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Interval",
    "partition_from_cuts",
    "validate_partition",
    "compositions",
    "partitions_with_m_intervals",
]


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open interval ``[start, stop)`` of 0-based task indices.

    Examples
    --------
    >>> iv = Interval(2, 5)       # paper tasks tau_3, tau_4, tau_5
    >>> len(iv)
    3
    >>> list(iv.tasks)
    [2, 3, 4]
    """

    start: int
    stop: int

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or not isinstance(self.stop, int):
            raise TypeError("interval bounds must be integers")
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(
                f"interval must satisfy 0 <= start < stop, got [{self.start}, {self.stop})"
            )

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def tasks(self) -> range:
        """The 0-based task indices covered by this interval."""
        return range(self.start, self.stop)

    def __contains__(self, task: int) -> bool:
        return self.start <= task < self.stop


def partition_from_cuts(n: int, cuts: Iterable[int]) -> list[Interval]:
    """Build a partition of ``[0, n)`` from cut positions.

    A cut at position ``c`` (``1 <= c <= n - 1``) separates task ``c - 1``
    from task ``c``; i.e. cuts are interval *boundaries* expressed as the
    ``stop`` of the interval they close.

    Examples
    --------
    >>> partition_from_cuts(5, [2, 3])
    [Interval(start=0, stop=2), Interval(start=2, stop=3), Interval(start=3, stop=5)]
    """
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n!r}")
    cut_list = sorted(set(int(c) for c in cuts))
    for c in cut_list:
        if not 1 <= c <= n - 1:
            raise ValueError(f"cut position {c} out of range [1, {n - 1}]")
    bounds = [0, *cut_list, n]
    return [Interval(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def validate_partition(n: int, partition: Sequence[Interval]) -> None:
    """Check that *partition* covers ``[0, n)`` contiguously, in order.

    Raises
    ------
    ValueError
        If intervals are empty (impossible by construction), out of
        order, overlapping, gapped, or do not cover exactly ``[0, n)``.
    """
    if not partition:
        raise ValueError("partition must contain at least one interval")
    if partition[0].start != 0:
        raise ValueError(f"first interval must start at 0, got {partition[0].start}")
    for prev, cur in zip(partition[:-1], partition[1:]):
        if cur.start != prev.stop:
            raise ValueError(
                f"intervals must be contiguous: [{prev.start},{prev.stop}) then "
                f"[{cur.start},{cur.stop})"
            )
    if partition[-1].stop != n:
        raise ValueError(
            f"last interval must stop at {n}, got {partition[-1].stop}"
        )


def compositions(n: int, m: int) -> Iterator[list[Interval]]:
    """Yield every partition of ``[0, n)`` into exactly ``m`` intervals.

    There are ``C(n-1, m-1)`` of them.  Used by brute-force oracles and
    tests; the production algorithms never enumerate.
    """
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n!r}")
    if not 1 <= m <= n:
        return
    if m == 1:
        yield [Interval(0, n)]
        return

    def rec(start: int, remaining: int) -> Iterator[list[Interval]]:
        if remaining == 1:
            yield [Interval(start, n)]
            return
        # leave at least `remaining - 1` tasks for the rest
        for stop in range(start + 1, n - remaining + 2):
            head = Interval(start, stop)
            for tail in rec(stop, remaining - 1):
                yield [head, *tail]

    yield from rec(0, m)


def partitions_with_m_intervals(n: int, max_m: int | None = None) -> Iterator[list[Interval]]:
    """Yield all partitions of ``[0, n)`` with at most *max_m* intervals.

    ``max_m`` defaults to ``n`` (all ``2**(n-1)`` partitions).
    """
    limit = n if max_m is None else min(max_m, n)
    for m in range(1, limit + 1):
        yield from compositions(n, m)
