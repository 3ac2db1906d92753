"""The brute-force oracle's size guard, importable without numpy.

:func:`~repro.algorithms.brute_force.brute_force_best` refuses an
instance whose estimated search space exceeds its budget.  The planner
(:mod:`repro.solve.planner`) applies the same estimate to a whole
scenario before any work, so it lives here, where importing it loads
no solver.
"""

from __future__ import annotations

__all__ = ["DEFAULT_BUDGET", "refusal", "search_space"]

#: Refuse search spaces larger than this many candidate mappings.
DEFAULT_BUDGET = 2_000_000


def search_space(n: int, p: int, K: int, homogeneous: bool) -> float:
    """Loose upper bound on the number of candidate mappings of an
    ``n``-task chain on ``p`` processors with replication bound ``K``."""
    if homogeneous:
        return (2 ** (n - 1)) * (K ** min(n, p))
    return (2 ** (n - 1)) * float(p + 1) ** min(n, p, K * p)


def refusal(
    n: int, p: int, K: int, homogeneous: bool, budget: int = DEFAULT_BUDGET
) -> "str | None":
    """Why brute force refuses such an instance, or None when it fits."""
    estimate = search_space(n, p, K, homogeneous)
    if estimate > budget:
        return (
            f"search space ~{estimate:.2e} exceeds budget {budget}; "
            "brute force is for tiny instances only"
        )
    return None
