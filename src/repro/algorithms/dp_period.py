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

from repro.algorithms._hom_dp import hom_reliability_dp, require_homogeneous
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.platform import Platform

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
    if max_period <= 0:
        raise ValueError(f"max_period must be > 0, got {max_period!r}")
    dp = hom_reliability_dp(chain, platform, max_period=max_period)
    if dp.mapping is None:
        return SolveResult.infeasible("algorithm-2", max_period=max_period)
    return SolveResult(
        feasible=True,
        mapping=dp.mapping,
        evaluation=evaluate_mapping(dp.mapping),
        method="algorithm-2",
        details={"dp_log_reliability": dp.log_reliability, "max_period": max_period},
    )


def candidate_periods(chain: TaskChain, platform: Platform) -> np.ndarray:
    """All values the period of a mapping can take, sorted increasing.

    The period (Eq. (6)/(8), homogeneous) is a maximum of interval
    computation times ``W(i,j)/s`` and communication times ``o_i/b``, so
    it always equals one of these ``O(n^2)`` numbers.
    """
    n = chain.n
    s = float(platform.speeds[0])
    b = platform.bandwidth
    prefix = np.concatenate(([0.0], np.cumsum(chain.work)))
    values = {
        float(prefix[i] - prefix[j]) / s for j in range(n) for i in range(j + 1, n + 1)
    }
    values.update(float(o) / b for o in chain.output)
    # A period of 0 is meaningless (every interval computes for > 0 time);
    # drop non-positive candidates such as the o_n = 0 convention's 0.
    return np.array(sorted(v for v in values if v > 0.0))


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
    latency is unbounded and the exact Pareto DP
    (:func:`~repro.algorithms.pareto_dp.pareto_dp_best`) otherwise —
    both exact, so the binary search terminates with the exact optimum.

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
    require_homogeneous(platform, "period minimization")
    if min_log_reliability > 0.0 or math.isnan(min_log_reliability):
        raise ValueError("min_log_reliability must be a log-probability (<= 0)")
    if not max_period > 0 or not max_latency > 0:
        raise ValueError("bounds must be > 0")

    if math.isinf(max_latency):
        def meets(period_bound: float) -> "tuple[bool, object]":
            dp = hom_reliability_dp(chain, platform, max_period=period_bound)
            ok = dp.mapping is not None and dp.log_reliability >= min_log_reliability
            return ok, dp.mapping
    else:
        # The pareto_dp_best probe, with the row's DP tables built once
        # for every bisection step.
        from repro.algorithms.pareto_dp import _FrontierDP, _most_reliable

        frontier = _FrontierDP(chain, platform)
        comm_budget = max_latency - frontier.total_compute

        def meets(period_bound: float) -> "tuple[bool, object]":
            if comm_budget < 0:
                return False, None
            front = frontier.run(frontier.admitted(period_bound), comm_budget)
            best = _most_reliable(front[frontier.n], comm_budget)
            if best is None:
                return False, None
            mapping = frontier.reconstruct(front, *best)
            ell = evaluate_mapping(mapping).log_reliability
            return ell >= min_log_reliability, mapping

    candidates = candidate_periods(chain, platform)
    candidates = candidates[candidates <= max_period]
    if len(candidates) == 0:
        return SolveResult.infeasible(
            "dp-period", reason="no candidate period within max_period"
        )

    # Feasibility check at the loosest admissible bound.  The witness
    # mapping of the last successful probe is kept throughout: at loop
    # exit it belongs to candidates[hi], so no final re-solve is needed.
    ok, witness = meets(float(candidates[-1]))
    if not ok:
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
        ok, mapping = meets(float(candidates[mid]))
        if ok:
            hi = mid
            witness = mapping
        else:
            lo = mid + 1
    best_period = float(candidates[hi])
    mapping = witness
    assert mapping is not None
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
