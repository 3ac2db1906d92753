"""Batched exact-DP kernels: dp-period, dp-latency and pareto-dp.

The exact homogeneous cells: one kernel call runs
:func:`~repro.algorithms.minimize_period` /
:func:`~repro.algorithms.minimize_latency` /
:func:`~repro.algorithms.pareto_dp_best` over every row of a
homogeneous ensemble group at every sweep point, bit-identical to the
per-row loop (same bit-identity contract as
:mod:`repro.algorithms.batch` — see that module's docstring for the
rules the style below follows).

* **dp-period** (:func:`batch_minimize_period`) — the scalar path
  binary-searches the ``O(n^2)`` candidate periods, probing each with
  the Algorithm 2 DP.  The kernel keeps one *lane* per (row, sweep
  point), enumerates candidates per row, and runs every probe round as
  a single lane-vectorized DP (:class:`_LaneDP`) over the not-yet
  converged lanes with per-lane period bounds — the bisection happens
  in lockstep, so a group costs ``O(log n_candidates)`` DP rounds
  instead of ``rows x points`` full binary searches.  Each lane's
  ``(lo, hi)`` trajectory and probe count replicate the scalar
  bisection exactly.  The scalar path's witness is the mapping probed
  at the final ``candidates[hi]``; the DP is deterministic, so one
  parent-tracked DP round at that bound reconstructs the identical
  witness, which is then scored by the real
  :func:`~repro.core.evaluation.evaluate_mapping`.

* **pareto-dp** (:func:`batch_pareto_dp`) and **dp-latency**
  (:func:`batch_minimize_latency`) — the scalar paths run one frontier
  DP per (row, point) with the *latency budget* as a pruning bound.
  The kernels build each row's bounds-independent tables once
  (:class:`~repro.algorithms.pareto_dp._FrontierDP`) and group the
  row's points by the set of intervals their period bound admits — a
  run depends on the period only through that set.  Inserting points
  beyond a point's budget never evicts or dominates a within-budget
  frontier point (cost is the first frontier coordinate), so the
  sub-frontier within a smaller budget of a larger-budget run equals
  the smaller run's frontier.  Each group therefore runs one DP at its
  *largest* live budget, and every point of the group is answered by
  the scalar selection (most reliable within budget, or cheapest
  meeting the floor) restricted to ``cost <= budget_pt`` — a latency
  sweep costs one DP per row.

Every kernel returns a :class:`~repro.algorithms.batch.UnitResults`.
dp-period fills its per-row ``infos`` with the ``probes`` counts the
per-row path would have accumulated, so harness events and cache
record bytes stay identical; the frontier kernels leave them ``None``
(their scalar twins report no per-unit info).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.batch import (
    BatchUnsupported,
    UnitResults,
    _resolve_rows,
    check_bounds,
    floor_log_reliability,
)
from repro.algorithms.pareto_dp import _cheapest_meeting, _FrontierDP, _most_reliable
from repro.core.evaluation import evaluate_mapping
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.util import logrel

__all__ = ["batch_minimize_period", "batch_minimize_latency", "batch_pareto_dp"]


def _require_homogeneous_rows(ensemble, rows: np.ndarray, kernel: str) -> None:
    if not ensemble.homogeneous_rows()[rows].all():
        raise BatchUnsupported(
            f"the batched {kernel} kernel requires fully homogeneous rows "
            "(the Section 5 DPs are only optimal there; Section 6 proves "
            "the heterogeneous problem NP-complete)",
            reason="heterogeneous",
        )


class _LaneDP:
    """Lane-vectorized Algorithm 1/2 core over homogeneous rows.

    Precomputes, per row, everything the scalar
    :func:`~repro.algorithms._hom_dp.hom_reliability_dp` derives before
    its ``F`` recurrence — the branch log-reliability/stage tables are
    bound-independent, so they are shared by every probe round.  A
    *lane* is one (row, period bound) pair; :meth:`run` executes the
    recurrence for many lanes at once, each against its own bound.
    """

    __slots__ = (
        "n", "p", "kmax", "s", "b", "prefix", "in_time", "out_time",
        "wtime", "stage",
    )

    def __init__(self, ensemble, rows: np.ndarray) -> None:
        r = len(rows)
        n, p = ensemble.n_tasks, ensemble.p
        kmax = min(ensemble.max_replication, p)
        b, link = ensemble.bandwidth, ensemble.link_failure_rate
        work = np.ascontiguousarray(ensemble.work[rows])
        output = np.ascontiguousarray(ensemble.output[rows])
        # Homogeneous rows: column 0 is every processor.
        s = np.ascontiguousarray(ensemble.speeds[rows, 0], dtype=float)
        lam = np.ascontiguousarray(ensemble.failure_rates[rows, 0], dtype=float)

        prefix = np.concatenate([np.zeros((r, 1)), np.cumsum(work, axis=1)], axis=1)
        # ell_comm[:, j] = log rcomm of the boundary before task j
        # (input_of(0) = 0, input_of(j) = output[j-1], output_of(n) =
        # output[n-1] — so the boundary sizes are [0, output...]).
        ell_comm = -link * (np.concatenate([np.zeros((r, 1)), output], axis=1) / b)
        self.in_time = np.concatenate([np.zeros((r, 1)), output[:, : n - 1]], axis=1) / b
        self.out_time = output / b

        qs = np.arange(1, kmax + 1)
        # Per candidate interval [j, i): compute time and replica-count
        # stage table for every row (the scalar loop's ell_branch /
        # parallel_k_many, broadcast across rows — elementwise ops and
        # the masked log1mexp agree across shapes).
        self.wtime = {}
        self.stage = {}
        for i in range(1, n + 1):
            for j in range(i):
                work_ij = prefix[:, i] - prefix[:, j]
                self.wtime[(j, i)] = work_ij / s
                branch = (ell_comm[:, j] - lam * work_ij / s) + ell_comm[:, i]
                self.stage[(j, i)] = logrel.parallel_k_many(branch[:, None], qs)

        self.n, self.p, self.kmax = n, p, kmax
        self.s, self.b, self.prefix = s, b, prefix

    def run(self, lanes: np.ndarray, P: np.ndarray, track: bool):
        """One DP round: ``lanes`` index this table's rows, ``P`` is the
        per-lane period bound.  Returns ``(F, best, parent_j, parent_q)``
        (parents ``None`` unless *track*)."""
        n, p, kmax = self.n, self.p, self.kmax
        L = lanes.size
        NEG = -math.inf
        F = np.full((n + 1, L, p + 1), NEG)
        F[0, :, 0] = 0.0
        pj = pq = None
        if track:
            pj = np.full((n + 1, L, p + 1), -1, dtype=np.int64)
            pq = np.full((n + 1, L, p + 1), -1, dtype=np.int64)
        out_t = self.out_time[lanes]
        in_t = self.in_time[lanes]
        for i in range(1, n + 1):
            ok_i = out_t[:, i - 1] <= P
            if not ok_i.any():
                continue
            row_i = F[i]
            for j in range(i):
                ok = ok_i & (self.wtime[(j, i)][lanes] <= P) & (in_t[:, j] <= P)
                if not ok.any():
                    continue
                # Lanes whose interval [j, i) violates their bound take a
                # -inf stage — the masked twin of the scalar `continue`.
                stg = np.where(ok[:, None], self.stage[(j, i)][lanes], NEG)
                row_j = F[j]
                for q in range(1, kmax + 1):
                    cand = row_j[:, : p + 1 - q] + stg[:, q - 1 : q]
                    dest = row_i[:, q:]
                    better = cand > dest
                    if better.any():
                        dest[better] = cand[better]
                        if track:
                            li, ki = np.nonzero(better)
                            pj[i, li, ki + q] = j
                            pq[i, li, ki + q] = q
        best = F[n, :, 1:].max(axis=1)
        return F, best, pj, pq

    def reconstruct(self, F, pj, pq, lane: int, ensemble, row: int) -> Mapping:
        """The scalar parent walk for one lane (processors 0, 1, 2...)."""
        n = self.n
        best_k = int(np.argmax(F[n, lane, 1:])) + 1
        pieces: list[tuple[int, int, int]] = []
        i, k = n, best_k
        while i > 0:
            j, q = int(pj[i, lane, k]), int(pq[i, lane, k])
            if j < 0:
                raise AssertionError("broken parent chain in lane DP")
            pieces.append((j, i, q))
            i, k = j, k - q
        pieces.reverse()
        assignment = []
        next_proc = 0
        for start, stop, q in pieces:
            procs = tuple(range(next_proc, next_proc + q))
            next_proc += q
            assignment.append((Interval(start, stop), procs))
        return Mapping(ensemble.chain(row), ensemble.platform(row), assignment)


def batch_minimize_period(
    ensemble,
    bounds: Sequence[tuple[float, float]],
    *,
    rows: "Sequence[int] | None" = None,
    objective: str = "period",
    min_reliability: float = 0.0,
) -> UnitResults:
    """Batched ``minimize_period`` over homogeneous ensemble rows.

    The kernel twin of calling ``minimize_period(chain, platform,
    min_log_reliability=floor, max_period=P, max_latency=L)`` per row
    per sweep point.  Covers the cell the Algorithm 2 probe covers:
    every point's latency bound must be infinite (a finite latency
    switches the scalar probe to the per-row Pareto DP, which is not
    batched — those points fall back).

    ``infos[row]`` is ``{"probes": total}`` over the row's feasible
    points (``None`` when every point is infeasible — the scalar
    infeasible result records no probe count).
    """
    if objective != "period":
        raise BatchUnsupported(
            f"the batched dp-period kernel covers objective 'period' only, "
            f"got {objective!r}",
            reason="objective",
        )
    rows = _resolve_rows(ensemble, rows)
    n_pts = len(bounds)
    r = len(rows)
    out = UnitResults.empty(r, n_pts, objective)
    if r == 0:
        return out
    _require_homogeneous_rows(ensemble, rows, "dp-period")
    if any(not math.isinf(float(L)) for _, L in bounds):
        raise BatchUnsupported(
            "the batched dp-period kernel probes with the Algorithm 2 DP, "
            "which requires an unbounded latency; points with a finite "
            "max_latency take the per-row Pareto-DP probe instead",
            reason="latency-bound",
        )
    check_bounds(bounds)

    floor = floor_log_reliability(min_reliability)
    dp = _LaneDP(ensemble, rows)
    n = dp.n

    # Per-row sorted candidate periods — the scalar set comprehension
    # (all W(j, i)/s interval times plus the o/b communication times,
    # positives only, deduped) as one unique() per row.
    jj, ii = np.triu_indices(n + 1, k=1)
    cands: list[np.ndarray] = []
    for ri in range(r):
        vals = np.concatenate(
            [(dp.prefix[ri, ii] - dp.prefix[ri, jj]) / dp.s[ri], dp.out_time[ri]]
        )
        cands.append(np.unique(vals[vals > 0.0]))

    # Lane layout: lane = ri * n_pts + pt.
    P_pts = np.array([float(P) for P, _ in bounds])
    counts = np.stack(
        [np.searchsorted(cands[ri], P_pts, side="right") for ri in range(r)]
    )
    probes = np.zeros((r, n_pts), dtype=np.int64)
    lane_row = np.repeat(np.arange(r), n_pts)

    # Initial probe at each lane's loosest admissible candidate; lanes
    # with no candidate within max_period are infeasible with no probe.
    alive = np.flatnonzero(counts.ravel() > 0)
    if alive.size == 0:
        return out
    hi = counts.ravel()[alive].astype(np.int64) - 1
    lr = lane_row[alive]
    Pa = np.array([float(cands[lr[a]][h]) for a, h in enumerate(hi)])
    _, best, _, _ = dp.run(lr, Pa, track=False)
    ok = np.isfinite(best) & (best >= floor)
    probes.ravel()[alive] = 1
    # Scalar infeasible results carry no "probes" key; drop their count.
    probes.ravel()[alive[~ok]] = 0

    ids = alive[ok]  # admissible lanes: candidates[hi] meets the floor
    if ids.size:
        lr = lane_row[ids]
        hi = hi[ok]
        lo = np.zeros(ids.size, dtype=np.int64)
        while True:
            act = np.flatnonzero(lo < hi)
            if act.size == 0:
                break
            mid = (lo[act] + hi[act]) // 2
            probes.ravel()[ids[act]] += 1
            Pm = np.array([float(cands[lr[a]][m]) for a, m in zip(act, mid)])
            _, bm, _, _ = dp.run(lr[act], Pm, track=False)
            okm = np.isfinite(bm) & (bm >= floor)
            hi[act[okm]] = mid[okm]
            lo[act[~okm]] = mid[~okm] + 1
        # One parent-tracked round at candidates[hi] reproduces the
        # scalar witness (the DP is deterministic and the scalar keeps
        # the mapping probed at its final hi).
        Pf = np.array([float(cands[lr[a]][h]) for a, h in enumerate(hi)])
        F, _, pj, pq = dp.run(lr, Pf, track=True)
        for a, lane_id in enumerate(ids):
            ri, pt = int(lane_id) // n_pts, int(lane_id) % n_pts
            mapping = dp.reconstruct(F, pj, pq, a, ensemble, int(rows[ri]))
            ev = evaluate_mapping(mapping)
            out.solved[ri, pt] = True
            out.failure[ri, pt] = ev.failure_probability
            out.values[ri, pt] = ev.worst_case_period
            out.period[ri, pt] = ev.worst_case_period
            out.latency[ri, pt] = ev.worst_case_latency

    for ri in range(r):
        total = int(probes[ri].sum())
        out.infos[ri] = {"probes": total} if total > 0 else None
    return out


def _frontier_kernel(ensemble, bounds, rows, kernel: str, objective: str, select, score):
    """The shared body of the frontier-DP kernels.

    Per row: build the DP tables once, run one DP per group of points
    that admit the same intervals (at the group's loosest live budget),
    and answer each point by ``select(front[n], budget)``, the scalar
    path's selection restricted to the point's own budget (see the
    module docstring).  Each answer is reconstructed and scored by the
    real :func:`~repro.core.evaluation.evaluate_mapping`; ``score(ev)``
    is its *objective* value.  Only the current DP run is alive at any
    time.
    """
    rows = _resolve_rows(ensemble, rows)
    out = UnitResults.empty(len(rows), len(bounds), objective)
    if len(rows) == 0:
        return out
    _require_homogeneous_rows(ensemble, rows, kernel)
    check_bounds(bounds)

    for ri, row in enumerate(rows):
        dp = _FrontierDP(ensemble.chain(int(row)), ensemble.platform(int(row)))
        # A latency bound below the compute lower bound (negative
        # budget) is infeasible before any DP runs, as in the scalar
        # early return.
        budgets = [float(L) - dp.total_compute for _, L in bounds]
        groups: dict[tuple, list[int]] = {}
        for pt, (P, _L) in enumerate(bounds):
            if budgets[pt] >= 0:
                groups.setdefault(dp.admitted(float(P)), []).append(pt)
        for admitted, pts in groups.items():
            front = dp.run(admitted, max(budgets[pt] for pt in pts))
            for pt in pts:
                best = select(front[dp.n], budgets[pt])
                if best is None:
                    continue
                ev = evaluate_mapping(dp.reconstruct(front, *best))
                out.solved[ri, pt] = True
                out.failure[ri, pt] = ev.failure_probability
                out.values[ri, pt] = score(ev)
                out.period[ri, pt] = ev.worst_case_period
                out.latency[ri, pt] = ev.worst_case_latency
    return out


def batch_pareto_dp(
    ensemble,
    bounds: Sequence[tuple[float, float]],
    *,
    rows: "Sequence[int] | None" = None,
    objective: str = "reliability",
    min_reliability: float = 0.0,
) -> UnitResults:
    """Batched ``pareto_dp_best`` over homogeneous ensemble rows.

    One frontier run per (row, admitted-interval group) serves every
    sweep point of the group, answered by the most reliable point
    within the point's budget.
    *min_reliability* is accepted for the ``solve_batch`` signature;
    the reliability objective carries no floor.
    """
    if objective != "reliability":
        raise BatchUnsupported(
            f"the batched pareto-dp kernel covers objective 'reliability' "
            f"only, got {objective!r}",
            reason="objective",
        )
    return _frontier_kernel(
        ensemble, bounds, rows, "pareto-dp", objective,
        select=_most_reliable,
        score=lambda ev: ev.reliability,
    )


def batch_minimize_latency(
    ensemble,
    bounds: Sequence[tuple[float, float]],
    *,
    rows: "Sequence[int] | None" = None,
    objective: str = "latency",
    min_reliability: float = 0.0,
) -> UnitResults:
    """Batched ``minimize_latency`` over homogeneous ensemble rows.

    The same shared frontier runs as :func:`batch_pareto_dp`, answered
    by the cheapest point meeting the floor.
    """
    if objective != "latency":
        raise BatchUnsupported(
            f"the batched dp-latency kernel covers objective 'latency' only, "
            f"got {objective!r}",
            reason="objective",
        )
    floor = floor_log_reliability(min_reliability)
    return _frontier_kernel(
        ensemble, bounds, rows, "dp-latency", objective,
        select=lambda final, budget: _cheapest_meeting(final, floor, budget),
        score=lambda ev: ev.worst_case_latency,
    )
