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

Shared core.  :class:`_FrontierDP` holds everything about a row that
does not depend on the bounds (prefix sums, per-boundary communication
terms, and per candidate interval its compute time and replica-count
stage table), so a caller that solves one row at many bound points —
the finite-L probes of :func:`~repro.algorithms.dp_period.minimize_period`
— builds the tables once.  :meth:`_FrontierDP.run` is also the
reference of the batched kernels of :mod:`repro.algorithms.batch_dp`,
which stack these quantities over rows and run the same DP for every
(row, bound point) at once: one lane per point with its own admitted
intervals and exact budget (no two points share a run).  Their
frontiers keep what :meth:`ParetoFrontier.insert` keeps, ties
included: of two points equal in cost and value the first inserted
wins, so the witnesses, and the results, are bit-identical.
The selection functions :func:`_most_reliable` and
:func:`_cheapest_meeting` scan a final frontier restricted to a
budget.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms._hom_dp import require_homogeneous
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import comm_log_reliability, evaluate_mapping
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util import logrel
from repro.util.pareto import ParetoFrontier
from repro.util.validation import check_bound, check_log_floor

__all__ = ["pareto_dp_best", "minimize_latency"]


class _FrontierDP:
    """The bounds-independent tables of one row's frontier DP.

    ``wtime[i][j]`` / ``stage[i][j]`` describe the candidate interval
    ``[j, i)``: its compute time and the log-reliability of ``q``
    replicas at ``stage[i][j][q - 1]`` (one ``parallel_k_many`` call per
    interval, kept as Python floats for the insert loop).  A stage table
    is filled the first time a run admits its interval, so a row pays
    for each at most once and a single tight-period solve only for the
    intervals it admits.
    """

    __slots__ = (
        "chain", "platform", "n", "p", "kmax", "s", "lam", "prefix",
        "total_compute", "ell_comm", "comm_time", "wtime", "stage",
    )

    def __init__(self, chain: TaskChain, platform: Platform) -> None:
        n, p = chain.n, platform.p
        kmax = min(platform.max_replication, p)
        s = float(platform.speeds[0])
        lam = float(platform.failure_rates[0])
        b = platform.bandwidth

        prefix = np.concatenate(([0.0], np.cumsum(chain.work)))
        ell_comm = [comm_log_reliability(platform, chain.input_of(j)) for j in range(n)]
        ell_comm.append(comm_log_reliability(platform, chain.output_of(n)))
        comm_time = [chain.input_of(j) / b for j in range(n)]
        comm_time.append(chain.output_of(n) / b)

        self.chain, self.platform = chain, platform
        self.n, self.p, self.kmax, self.s, self.lam = n, p, kmax, s, lam
        self.prefix, self.total_compute = prefix, float(prefix[-1]) / s
        self.ell_comm, self.comm_time = ell_comm, comm_time
        self.wtime = [
            [float(prefix[i] - prefix[j]) / s for j in range(i)] for i in range(n + 1)
        ]
        self.stage: list[list[list[float] | None]] = [[None] * i for i in range(n + 1)]

    def _ell_branch(self, j: int, i: int) -> float:
        """Log-reliability of one replica of interval ``[j, i)``, its
        incoming and outgoing communications included."""
        work = float(self.prefix[i] - self.prefix[j])
        return self.ell_comm[j] - self.lam * work / self.s + self.ell_comm[i]

    def admitted(self, max_period: float) -> tuple:
        """The intervals ``(j, i)`` whose compute time and both
        communications fit *max_period*, in DP order."""
        comm_time, wtime = self.comm_time, self.wtime
        return tuple(
            (j, i)
            for i in range(1, self.n + 1)
            if not comm_time[i] > max_period
            for j in range(i)
            if not (wtime[i][j] > max_period or comm_time[j] > max_period)
        )

    def run(self, admitted: tuple, comm_budget: float) -> list:
        """Fill the frontier table ``front[i][k]`` for prefixes of *i*
        tasks on exactly *k* processors, extending only through the
        *admitted* intervals and pruning communication costs above
        *comm_budget* (see the module docstring).

        Each frontier holds ``(comm latency incl. the outgoing
        communication of the interval ending at i, log-reliability)``
        points with payload ``(j, k_prev, q, parent_cost)`` for
        reconstruction.
        """
        p, kmax = self.p, self.kmax
        front: list[list[ParetoFrontier | None]] = [
            [None] * (p + 1) for _ in range(self.n + 1)
        ]
        start = ParetoFrontier()
        start.insert(0.0, 0.0, None)
        front[0][0] = start

        for j, i in admitted:
            out_time = self.comm_time[i]
            stage = self.stage[i][j]
            if stage is None:
                stage = self.stage[i][j] = logrel.parallel_k_many(
                    self._ell_branch(j, i), np.arange(1, kmax + 1)
                ).tolist()
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

    def reconstruct(self, front: list, value: float, k: int, cost: float) -> Mapping:
        """Walk the frontier payloads backwards from a final state."""
        pieces: list[tuple[int, int, int]] = []
        i = self.n
        while i > 0:
            fr = front[i][k]
            assert fr is not None
            payload = None
            for c, v, pl in fr:
                if c == cost and v == value:
                    payload = pl
                    break
            assert payload is not None, "frontier point vanished during reconstruction"
            j, k_prev, q, parent_cost = payload
            pieces.append((j, i, q))
            # Recompute the parent's value to continue the walk.
            value = value - logrel.parallel_k(self._ell_branch(j, i), q)
            # Guard against float drift: snap to the closest parent point.
            parent_fr = front[j][k_prev]
            assert parent_fr is not None
            snapped = min(
                (pt for pt in parent_fr if pt[0] == parent_cost),
                key=lambda pt: abs(pt[1] - value),
                default=None,
            )
            assert snapped is not None
            value = snapped[1]
            cost = parent_cost
            i, k = j, k_prev
        pieces.reverse()
        return _mapping(self.chain, self.platform, pieces)


def _mapping(chain: TaskChain, platform: Platform, pieces: list) -> Mapping:
    """The mapping of ``(j, i, q)`` pieces in chain order: interval
    ``[j, i)`` on the next ``q`` processors (0, 1, 2...)."""
    assignment = []
    nxt = 0
    for a, z, q in pieces:
        assignment.append((Interval(a, z), tuple(range(nxt, nxt + q))))
        nxt += q
    return Mapping(chain, platform, assignment)


def _most_reliable(
    final: list, comm_budget: float
) -> "tuple[float, int, float] | None":
    """``(log-reliability, k, cost)`` of the most reliable final point
    within *comm_budget* (the lowest ``k`` on ties), or ``None``.

    *final* is the DP's last row ``front[n]``.
    """
    best: tuple[float, int, float] | None = None
    for k in range(1, len(final)):
        fr = final[k]
        if fr is None:
            continue
        hit = fr.best_value_within(comm_budget)
        if hit is None:
            continue
        value, _ = hit
        if best is None or value > best[0]:
            # Locate the exact point for reconstruction.
            for cost, val, _pl in fr:
                if val == value:
                    best = (value, k, cost)
                    break
    return best


def _cheapest_meeting(
    final: list, min_log_reliability: float, comm_budget: float
) -> "tuple[float, int, float] | None":
    """``(log-reliability, k, cost)`` of the cheapest final point within
    *comm_budget* whose value meets the floor, or ``None``.

    Ties are broken by value, then by ``k``, so equal-latency mappings
    resolve to the most reliable one.
    """
    best: tuple[float, float, int] | None = None  # (cost, -logrel, k)
    for k in range(1, len(final)):
        fr = final[k]
        if fr is None:
            continue
        for cost, value, _payload in fr:
            if cost > comm_budget or value < min_log_reliability:
                continue
            key = (cost, -value, k)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    cost, neg_value, k = best
    return -neg_value, k, cost


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

    dp = _FrontierDP(chain, platform)
    comm_budget = max_latency - dp.total_compute
    if comm_budget < 0:
        # Even a zero-communication partition exceeds the latency bound.
        return SolveResult.infeasible(
            "pareto-dp", reason="latency below compute lower bound"
        )

    front = dp.run(dp.admitted(max_period), comm_budget)
    best = _most_reliable(front[dp.n], comm_budget)
    if best is None:
        return SolveResult.infeasible("pareto-dp")

    mapping = dp.reconstruct(front, *best)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="pareto-dp",
        details={"frontier_final_size": sum(len(f) for f in front[dp.n] if f)},
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

    dp = _FrontierDP(chain, platform)
    comm_budget = max_latency - dp.total_compute
    if comm_budget < 0:
        return SolveResult.infeasible(
            "dp-latency", reason="latency cap below compute lower bound"
        )

    front = dp.run(dp.admitted(max_period), comm_budget)
    best = _cheapest_meeting(front[dp.n], min_log_reliability, comm_budget)
    if best is None:
        return SolveResult.infeasible(
            "dp-latency",
            min_log_reliability=min_log_reliability,
            max_period=max_period,
            max_latency=max_latency,
        )

    mapping = dp.reconstruct(front, *best)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="dp-latency",
        details={
            "optimal_latency": dp.total_compute + best[2],
            "frontier_final_size": sum(len(f) for f in front[dp.n] if f),
        },
    )
