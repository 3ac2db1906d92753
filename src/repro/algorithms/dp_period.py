"""Algorithm 2 — reliability optimization under a period bound, and its
converse (Section 5.2).

Theorem 2: on fully homogeneous platforms, the dynamic program computes
in ``O(n^2 p^2)`` the most reliable mapping whose period does not exceed
a bound ``P`` (on such platforms expected and worst-case period
coincide).

The converse problem — minimize the period subject to a reliability
bound — "is polynomial too: we can simply perform a binary search on the
period and repeatedly execute Algorithm 2" (end of Section 5.2).  The
period of any mapping takes one of ``O(n^2)`` values (an interval
computation time ``W(i,j)/s`` or a communication time ``o_i/b``), so the
binary search runs over that finite candidate set and terminates with
the exact optimum.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms._hom_dp import HomTable, hom_reliability_dp, require_homogeneous
from repro.algorithms.pareto_dp import _frontier_dp, _frontier_witness, _most_reliable
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.platform import Platform
from repro.util.validation import check_bound, check_log_floor

__all__ = [
    "optimize_reliability_period",
    "minimize_period",
]


def optimize_reliability_period(  # repro-lint: disable=API001 Algorithm 2, §5.2
    chain: TaskChain, platform: Platform, max_period: float
) -> SolveResult:
    """Most reliable mapping with period ``<= max_period`` (Algorithm 2).

    Returns an infeasible :class:`SolveResult` when no interval division
    satisfies the bound (e.g. a single task's execution or communication
    time already exceeds it).

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [1.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-4,
    ...                                      max_replication=2)
    >>> optimize_reliability_period(chain, plat, max_period=8.0).mapping.m
    2
    >>> optimize_reliability_period(chain, plat, max_period=5.0).feasible
    False
    """
    max_period = check_bound("max_period", max_period)
    require_homogeneous(platform, "the homogeneous reliability DP")
    table = HomTable(chain, platform)
    dp = hom_reliability_dp(table, max_period)
    if dp.pieces is None:
        return SolveResult.infeasible("algorithm-2", max_period=max_period)
    mapping = table.mapping(dp.pieces)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="algorithm-2",
        details={"dp_log_reliability": dp.log_reliability, "max_period": max_period},
    )


def candidate_periods(chain: TaskChain, platform: Platform) -> np.ndarray:
    """All values the period of a mapping can take, sorted increasing.

    The period (Eq. (6)/(8), homogeneous) is a maximum of interval
    computation times ``W(i,j)/s`` and communication times ``o_i/b``, so
    it always equals one of these ``O(n^2)`` numbers.
    """
    return HomTable(chain, platform).candidate_periods()


def minimize_period(
    chain: TaskChain,
    platform: Platform,
    min_log_reliability: float = -math.inf,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Minimize the period under a reliability floor *and* a latency bound.

    The Section 5.2 converse, generalized to three criteria: binary
    search over :func:`candidate_periods`, probing each candidate with
    the most reliable mapping that satisfies both the candidate period
    and the latency bound.  The probe is Algorithm 2
    (:func:`~repro.algorithms._hom_dp.hom_reliability_dp`) when the
    latency is unbounded and the exact frontier DP of
    :func:`~repro.algorithms.pareto_dp.pareto_dp_best` otherwise —
    both exact, so the binary search terminates with the exact optimum.
    One :class:`~repro.algorithms._hom_dp.HomTable` serves every probe
    of the call.  At an unbounded latency the two DPs agree on the best
    log-reliability bit for bit, so either probe compares that value
    with the floor in one place; only the final witness becomes a
    mapping.  The batched twin
    (:func:`~repro.algorithms.batch_dp.batch_minimize_period`) runs the
    same bisection in lockstep on both probes and matches it bit for
    bit.

    Parameters
    ----------
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor:
        minimize the period over all feasible mappings).
    max_period:
        Optional cap on the answer; the result is infeasible when even
        the optimal period exceeds it.
    max_latency:
        Latency bound honored by every probe solve.

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [1.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-4,
    ...                                      max_replication=2)
    >>> minimize_period(chain, plat).details["optimal_period"]
    6.0
    """
    min_log_reliability = check_log_floor(min_log_reliability)
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    require_homogeneous(platform, "period minimization")

    # A probe judges the most reliable mapping within the candidate
    # period by its DP log-reliability.  Both probes read one table, and
    # only the final witness becomes a Mapping and is evaluated.
    table = HomTable(chain, platform)
    comm_budget = max_latency - table.total_compute

    def meets(period_bound: float) -> "list | None":
        """The pieces of the most reliable mapping within *period_bound*
        and the latency bound, or ``None`` when there is none or it
        misses the floor."""
        if math.isinf(max_latency):
            dp = hom_reliability_dp(table, period_bound)
            value, pieces = dp.log_reliability, dp.pieces
        elif comm_budget < 0:
            return None
        else:
            front = _frontier_dp(table, period_bound, comm_budget)
            best = _most_reliable(front[table.n])
            if best is None:
                return None
            value, k, cost = best
            pieces = _frontier_witness(table.n, front, k, cost)
        return pieces if pieces is not None and value >= min_log_reliability else None

    candidates = table.candidate_periods()
    candidates = candidates[candidates <= max_period]
    if len(candidates) == 0:
        return SolveResult.infeasible(
            "dp-period", reason="no candidate period within max_period"
        )

    # Feasibility check at the loosest admissible bound.  The witness
    # of the last successful probe is kept throughout: at loop exit it
    # belongs to candidates[hi], so no final re-solve is needed.
    witness = meets(float(candidates[-1]))
    if witness is None:
        return SolveResult.infeasible(
            "dp-period",
            min_log_reliability=min_log_reliability,
            max_period=max_period,
            max_latency=max_latency,
        )

    lo, hi = 0, len(candidates) - 1  # invariant: candidates[hi] admissible
    probes = 1
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        found = meets(float(candidates[mid]))
        if found is not None:
            hi = mid
            witness = found
        else:
            lo = mid + 1
    best_period = float(candidates[hi])
    mapping = table.mapping(witness)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="dp-period",
        details={
            "optimal_period": best_period,
            "probes": probes,
            "candidates": len(candidates),
        },
    )
