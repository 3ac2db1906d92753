"""Exact tri-criteria solver for homogeneous platforms (our addition).

The paper solves the homogeneous tri-criteria problem (maximize
reliability under period *and* latency bounds) with an integer linear
program (Section 5.4) because the bi-criteria (reliability, latency)
problem is NP-complete (Theorem 3).  This module provides an exact
*combinatorial* alternative used to cross-validate the ILP: a dynamic
program over states ``(tasks mapped, processors used)`` whose value is
the Pareto frontier of ``(communication latency so far, log-reliability)``
pairs.

Why this is exact.  On a homogeneous platform the latency of a mapping
is ``W_total / s + sum_j o_{l_j} / b`` (Eq. (5)/(7): the computation term
is partition-invariant), so among prefixes using the same number of
processors, a partial mapping can only be beaten by one with both a
smaller accumulated communication term and a better reliability — the
Pareto frontier keeps every potentially-optimal prefix.  Worst-case
complexity is exponential (consistent with Theorem 3: the frontier can
grow with the number of distinct communication subsets), but frontier
sizes stay tiny on practical instances, which makes this an effective
exact method at the paper's experimental scale (n = 15).

The same frontier answers the *converse* latency question
(:func:`minimize_latency`, the Section 5.3 scope of the tri-criteria
facade): the minimum-latency mapping whose reliability meets a floor is
attained at a final Pareto point — any dominated mapping is beaten on
both coordinates by a frontier one — so minimizing over the frontier's
points with value above the floor is exact, at the cost of one DP run.

Shared core.  The DP reads the row's
:class:`~repro.algorithms._hom_dp.HomTable` (prefix sums, per-boundary
communication terms, interval compute times, replica-count stage
tables and the period-admission list), so a caller that solves one
row at many bound points — both probes of
:func:`~repro.algorithms.dp_period.minimize_period` — builds it once.
:func:`_frontier_dp` fills the frontiers; :func:`pareto_dp_best` and
:func:`minimize_latency` share one body, :func:`_frontier_solve`,
which differs only in how a final point is selected
(:func:`_most_reliable` or :func:`_cheapest_meeting`).  This scalar
path is the reference of the lane engine of
:mod:`repro.algorithms.batch_dp`, which stacks the tables of many rows
and runs the same DP for every (row, bound point) at once: one lane
per point with its own admitted intervals and exact budget (no two
points share a run).  Its frontiers keep what
:meth:`ParetoFrontier.insert` keeps, ties included: of two points
equal in cost and value the first inserted wins, so the witnesses, and
the results, are bit-identical.
"""

from __future__ import annotations

import math

from repro.algorithms._hom_dp import HomTable, require_homogeneous, walk
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.platform import Platform
from repro.util.pareto import ParetoFrontier
from repro.util.validation import check_bound, check_log_floor

__all__ = ["pareto_dp_best", "minimize_latency"]


def _frontier_dp(table: HomTable, max_period: float, comm_budget: float) -> list:
    """Fill the frontier table ``front[i][k]`` for prefixes of *i* tasks
    on exactly *k* processors, extending only through the intervals
    *max_period* admits and pruning communication costs above
    *comm_budget* (see the module docstring).

    Each frontier holds ``(comm latency incl. the outgoing
    communication of the interval ending at i, log-reliability)``
    points with payload ``(j, k_prev, q, parent_cost)`` for
    reconstruction.
    """
    p, kmax = table.p, table.kmax
    front: list[list[ParetoFrontier | None]] = [
        [None] * (p + 1) for _ in range(table.n + 1)
    ]
    start = ParetoFrontier()
    start.insert(0.0, 0.0, None)
    front[0][0] = start

    for j, i in table.admitted(max_period):
        out_time = table.comm_time[i]
        stage = table.stage_of(j, i)
        src_row, dst_row = front[j], front[i]
        for k_prev in range(p):
            src = src_row[k_prev]
            if src is None:
                continue
            # The source frontier (a row < i) is fixed while row i
            # fills, so its within-budget extensions are listed once.
            points = []
            for cost, value, _payload in src:
                new_cost = cost + out_time
                if new_cost <= comm_budget:
                    points.append((new_cost, value, cost))
            if not points:
                continue
            for q in range(1, min(kmax, p - k_prev) + 1):
                dst = dst_row[k_prev + q]
                if dst is None:
                    dst = dst_row[k_prev + q] = ParetoFrontier()
                gain = stage[q - 1]
                for new_cost, value, cost in points:
                    dst.insert(new_cost, value + gain, (j, k_prev, q, cost))
    return front


def _frontier_witness(n: int, front: list, k: int, cost: float) -> list:
    """:func:`~repro.algorithms._hom_dp.walk` from the final point of
    cost *cost* on *k* processors through the frontier payloads.

    A frontier holds at most one point per cost
    (:meth:`ParetoFrontier.insert` rejects or evicts an equal-cost
    point), and a source row is complete before any row it extends, so
    each parent is the point of its recorded cost.
    """
    def parent(i: int, state: tuple):
        k, cost = state
        j, k_prev, q, parent_cost = next(pl for c, _v, pl in front[i][k] if c == cost)
        return j, q, (k_prev, parent_cost)

    return walk(n, (k, cost), parent)


def _most_reliable(final: list, floor: float = -math.inf) -> "tuple[float, int, float] | None":
    """``(log-reliability, k, cost)`` of the most reliable final point
    (the lowest ``k`` on ties), or ``None``.

    *final* is the DP's last row ``front[n]``.  The DP keeps no point
    above its budget and a frontier's values increase with its costs,
    so each frontier's candidate is its last point.  *floor* is not
    read: the reliability objective has none.
    """
    best: tuple[float, int, float] | None = None
    for k in range(1, len(final)):
        fr = final[k]
        if fr is None:
            continue
        cost, value, _payload = list(fr)[-1]
        if best is None or value > best[0]:
            best = (value, k, cost)
    return best


def _cheapest_meeting(final: list, floor: float) -> "tuple[float, int, float] | None":
    """``(log-reliability, k, cost)`` of the cheapest final point whose
    value meets *floor*, or ``None``.

    Ties are broken by value, then by ``k``, so equal-latency mappings
    resolve to the most reliable one.
    """
    best: tuple[float, float, int] | None = None  # (cost, -logrel, k)
    for k in range(1, len(final)):
        fr = final[k]
        if fr is None:
            continue
        for cost, value, _payload in fr:
            if value < floor:
                continue
            key = (cost, -value, k)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    cost, neg_value, k = best
    return -neg_value, k, cost


def _frontier_solve(method: str, table: HomTable, max_period: float, max_latency: float,
                    select, refused: str, floor: float = -math.inf,
                    unmet: "dict | None" = None) -> SolveResult:
    """The one body of :func:`pareto_dp_best` and
    :func:`minimize_latency`, the scalar twin of
    :func:`~repro.algorithms.batch_dp._frontier_kernel`.

    A latency bound below the compute lower bound is infeasible before
    any DP runs (``reason=refused``).  Otherwise one DP run with the
    latency budget as the pruning bound; ``select(final, floor)``
    picks the answer among the final points (infeasible with *unmet*
    as details when it finds none), which is walked back and
    evaluated.  ``dp-latency`` also reports the latency it reached.
    """
    comm_budget = max_latency - table.total_compute
    if comm_budget < 0:
        # Even a zero-communication partition exceeds the latency bound.
        return SolveResult.infeasible(method, reason=refused)

    front = _frontier_dp(table, max_period, comm_budget)
    final = front[table.n]
    best = select(final, floor)
    if best is None:
        return SolveResult.infeasible(method, **(unmet or {}))

    _value, k, cost = best
    mapping = table.mapping(_frontier_witness(table.n, front, k, cost))
    details = {"frontier_final_size": sum(len(f) for f in final if f)}
    if method == "dp-latency":
        details = {"optimal_latency": table.total_compute + cost, **details}
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method=method,
        details=details,
    )


def pareto_dp_best(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Most reliable homogeneous mapping under period and latency bounds.

    Exact.  With ``max_latency = inf`` this reduces to Algorithm 2, and
    with both bounds infinite to Algorithm 1 (both reductions are tested).

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [4.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-6,
    ...                                      max_replication=2)
    >>> res = pareto_dp_best(chain, plat, max_period=7.0, max_latency=17.0)
    >>> res.mapping.m     # split needed for P, allowed by L
    2
    """
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    require_homogeneous(platform, "the exact Pareto DP")

    return _frontier_solve(
        "pareto-dp", HomTable(chain, platform), max_period, max_latency,
        _most_reliable, refused="latency below compute lower bound",
    )


def minimize_latency(
    chain: TaskChain,
    platform: Platform,
    min_log_reliability: float = -math.inf,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Minimize the latency under a reliability floor and a period bound.

    Exact on homogeneous platforms.  The latency of a mapping is
    ``W_total / s`` plus its accumulated communication term, and the
    minimum-latency mapping meeting the floor is attained at a final
    Pareto point of the same DP :func:`pareto_dp_best` runs (any
    non-frontier mapping is dominated on both coordinates).  One DP run
    with the latency budget as the pruning bound, then a scan of the
    final frontiers for the cheapest point whose value meets the floor.

    Parameters
    ----------
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor:
        minimize latency over all mappings within the period bound).
    max_period:
        Period bound honored by every candidate interval.
    max_latency:
        Optional cap on the answer; the result is infeasible when even
        the optimal latency exceeds it.

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [4.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-6,
    ...                                      max_replication=2)
    >>> minimize_latency(chain, plat).details["optimal_latency"]  # 1 interval
    12.0
    >>> minimize_latency(chain, plat, max_period=7.0).details["optimal_latency"]
    16.0
    """
    min_log_reliability = check_log_floor(min_log_reliability)
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    require_homogeneous(platform, "latency minimization")

    return _frontier_solve(
        "dp-latency", HomTable(chain, platform), max_period, max_latency,
        _cheapest_meeting, refused="latency cap below compute lower bound",
        floor=min_log_reliability,
        unmet={"min_log_reliability": min_log_reliability,
               "max_period": max_period, "max_latency": max_latency},
    )
