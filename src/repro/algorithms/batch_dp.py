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
  The kernels run that DP lane-vectorized (:class:`_FrontierLanes`):
  one lane per (row, sweep point), each with its own period admission
  mask and its exact budget, so no point shares or widens another's
  run.  Every row's bounds-independent tables are built once from the
  scalar :class:`~repro.algorithms.pareto_dp._FrontierDP` quantities.
  A DP row's frontier points of all lanes live in flat columns; each
  row is filled by extending all earlier points through their lanes'
  admitted intervals at once, and a stable sort reduces every
  ``(lane, k)`` state to its Pareto set.  The tie rule is
  :meth:`~repro.util.pareto.ParetoFrontier.insert`'s: of two points
  equal in cost and value, the first inserted (scalar loop order:
  source row, source ``k``, source cost) stays, so witnesses match the
  scalar parent walk.  Each lane is answered by the scalar selection
  (most reliable point, or cheapest meeting the floor) over its final
  row.  Lanes run in chunks of :data:`_CHUNK` to bound memory.

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
from repro.algorithms.pareto_dp import _FrontierDP, _mapping
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


#: Lanes per frontier-DP chunk.  A row's candidate columns hold about
#: ``kmax`` points per earlier frontier point of the chunk, so the chunk
#: bounds the engine's memory; the per-row array ops amortize well
#: before it.
_CHUNK = 48


class _FrontierLanes:
    """Lane-vectorized frontier DP over homogeneous rows.

    The tables are the scalar :class:`~repro.algorithms.pareto_dp._FrontierDP`
    quantities of every row, stacked: ``comm_time[r, i]``, and per
    interval ``[j, i)`` its compute time ``wtime[r, j, i]`` and
    replica-count stage table ``stage[r, j, i, q - 1]`` (one broadcast
    ``parallel_k_many`` over all intervals; ``j >= i`` entries are
    never read).  A *lane* is one (row, sweep point) with its own
    period bound and communication budget; :meth:`run` executes the DP
    for many lanes at once.
    """

    __slots__ = ("n", "p", "kmax", "total_compute", "comm_time", "wtime", "stage")

    def __init__(self, ensemble, rows: np.ndarray) -> None:
        quantities = []
        for r in rows:
            dp = _FrontierDP(ensemble.chain(int(r)), ensemble.platform(int(r)))
            quantities.append(
                (dp.prefix, dp.s, dp.lam, dp.ell_comm, dp.comm_time, dp.total_compute)
            )
        n, p, kmax = dp.n, dp.p, dp.kmax
        prefix, s, lam, ell_comm, comm_time, total_compute = map(np.array, zip(*quantities))
        s, lam = s[:, None, None], lam[:, None, None]
        # work[r, j, i] = W(j, i); the elementwise twins of the scalar
        # wtime and _ell_branch expressions, operation for operation.
        work = prefix[:, None, :] - prefix[:, :, None]
        upper = np.triu(np.ones((n + 1, n + 1), dtype=bool), k=1)
        ell = np.where(
            upper, ell_comm[:, :, None] - lam * work / s + ell_comm[:, None, :], 0.0
        )
        self.n, self.p, self.kmax = n, p, kmax
        self.total_compute, self.comm_time, self.wtime = total_compute, comm_time, work / s
        # Row by row, so the log1mexp temporaries stay one row's size.
        qs = np.arange(1, kmax + 1)
        self.stage = np.empty(ell.shape + (kmax,))
        for stage_r, ell_r in zip(self.stage, ell):
            stage_r[...] = logrel.parallel_k_many(ell_r[..., None], qs)

    def run(self, lane_row: np.ndarray, P: np.ndarray, budget: np.ndarray):
        """The DP of every lane at once; lane ``l`` solves table row
        ``lane_row[l]`` under period bound ``P[l]`` and communication
        budget ``budget[l]``.

        Returns the points of all rows as columns ``(lane, t, k, q,
        parent, cost, value)``: point ``x`` is on the frontier of state
        ``(t[x] tasks, k[x] processors)`` of its lane and was reached
        from point ``parent[x]`` by an interval on ``q[x]`` replicas.
        Each row's block is sorted by ``(lane, k, cost)``; the last
        block holds the final row when it is non-empty.

        Row ``i``'s candidates are every earlier point extended by every
        admitted ``[t, i)`` within budget and every replica count, laid
        out source-major — for each ``(lane, k)`` state that is the
        scalar insertion order (source row, then source ``k``, then
        source cost).  A stable sort by (state, cost up, value down)
        then keeps, per state, each point whose value beats every point
        before it: the Pareto set, with exact ties won by the first
        inserted point, as :meth:`ParetoFrontier.insert` keeps it.
        """
        n, p, kmax = self.n, self.p, self.kmax
        n_lanes = lane_row.size
        ct = self.comm_time[lane_row]
        fits = ~(ct > P[:, None])
        # adm[l, j, i]: interval [j, i) fits lane l's period bound.
        adm = fits[:, :, None] & ~(self.wtime[lane_row] > P[:, None, None]) & fits[:, None, :]
        qs = np.arange(1, kmax + 1, dtype=np.int32)

        # A point's state packs (lane, k) as lane * (p + 1) + k.
        state = np.arange(n_lanes, dtype=np.int32) * (p + 1)
        zeros = np.zeros(n_lanes, dtype=np.int32)
        cols = [state, zeros, zeros, np.full(n_lanes, -1, dtype=np.int32),
                np.zeros(n_lanes), np.zeros(n_lanes)]
        for i in range(1, n + 1):
            state, t, _, _, cost, value = cols
            lane, k = np.divmod(state, p + 1)
            new_cost = cost + ct[lane, i]
            src = np.flatnonzero(
                adm[lane, t, i] & (new_cost <= budget[lane]) & (k < p)
            ).astype(np.int32)
            if src.size == 0:
                continue
            ok = k[src, None] + qs <= p
            c_src = np.broadcast_to(src[:, None], ok.shape)[ok]
            c_state = (state[src, None] + qs)[ok]
            c_value = (value[src, None] + self.stage[lane_row[lane[src]], t[src], i])[ok]
            cost_rank = np.broadcast_to(_dense_rank(new_cost[src])[:, None], ok.shape)[ok]
            order = _pareto_order(c_state, cost_rank, c_value)
            up, s_new = c_src[order], c_state[order]
            block = [s_new, np.full(up.size, i, dtype=np.int32), s_new - state[up],
                     up, new_cost[up], c_value[order]]
            cols = [np.concatenate((a, b)) for a, b in zip(cols, block)]
        lane, k = np.divmod(cols[0], p + 1)
        return [lane, cols[1], k, *cols[2:]]

    def witnesses(
        self, lane_row: np.ndarray, P: np.ndarray, budget: np.ndarray, select, floor: float
    ) -> list:
        """:meth:`run`, then ``(lane, pieces)`` for every lane with an
        answer: ``select`` picks the lane's final point (the scalar
        selection over the final row) and its parent walk gives the
        ``(j, i, q)`` pieces of the witness, in chain order."""
        lane, t, k, q, parent, cost, value = self.run(lane_row, P, budget)
        final = np.flatnonzero(t == self.n)
        picks = final[select(lane[final], k[final], cost[final], value[final], floor)]
        found = []
        for x in picks.tolist():
            pieces = []
            lane_x = int(lane[x])
            while t[x] > 0:
                up = int(parent[x])
                pieces.append((int(t[up]), int(t[x]), int(q[x])))
                x = up
            pieces.reverse()
            found.append((lane_x, pieces))
        return found


def _dense_rank(x: np.ndarray) -> np.ndarray:
    """Order-preserving ranks ``0, 1, ...`` of *x*; equal values share one."""
    o = np.argsort(x)
    xs = x[o]
    rank = np.empty(x.size, dtype=np.int32)
    rank[o] = np.cumsum(np.r_[False, xs[1:] != xs[:-1]], dtype=np.int32)
    return rank


def _pareto_order(seg: np.ndarray, cost_rank: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The Pareto points of every segment, as indices in (segment, cost)
    order: minimal cost, maximal value, exact ties won by the lowest index.

    A stable sort by (segment, cost up, value down) on one packed int64
    key of dense ranks, then a segmented strict running max: a point
    stays iff its value beats every value before it in its segment.
    ``seg * n_values + value rank`` orders by (segment, value), so one
    global running max of it restarts at every segment.  (The packed
    key is below segments x cost ranks x value ranks, under 2**63 for
    any candidate set that fits in memory: about 5e15 for a million
    candidates of a chunk at p = 100.)
    """
    vr = _dense_rank(value)
    nv, nc = int(vr.max()) + 1, int(cost_rank.max()) + 1
    key = seg.astype(np.int64)
    key *= nc
    key += cost_rank
    key *= nv
    key += nv - 1
    key -= vr
    order = np.argsort(key, kind="stable")
    key[:] = seg[order]
    key *= nv
    key += vr[order]
    keep = np.empty(order.size, dtype=bool)
    keep[:1] = True
    np.greater(key[1:], np.maximum.accumulate(key)[:-1], out=keep[1:])
    return order[keep]


def _lane_firsts(lane: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The first point of each lane in *order* (sorted by lane first)."""
    lanes = lane[order]
    first = np.ones(lanes.size, dtype=bool)
    first[1:] = lanes[1:] != lanes[:-1]
    return order[first]


def _most_reliable_lanes(lane, k, cost, value, floor) -> np.ndarray:
    """Per lane, :func:`~repro.algorithms.pareto_dp._most_reliable`: the
    most reliable final point, the lowest ``k`` on ties."""
    return _lane_firsts(lane, np.lexsort((k, -value, lane)))


def _cheapest_meeting_lanes(lane, k, cost, value, floor) -> np.ndarray:
    """Per lane, :func:`~repro.algorithms.pareto_dp._cheapest_meeting`:
    the cheapest final point meeting the floor, ties broken by value,
    then by ``k``."""
    ok = np.flatnonzero(~(value < floor))
    order = np.lexsort((k[ok], -value[ok], cost[ok], lane[ok]))
    return _lane_firsts(lane, ok[order])


def _frontier_kernel(ensemble, bounds, rows, kernel: str, objective: str, select,
                     score, floor: float = -math.inf):
    """The shared body of the frontier-DP kernels.

    One lane per (row, sweep point) with a non-negative communication
    budget — a latency bound below the compute lower bound is
    infeasible before any DP runs, as in the scalar early return — and
    one :meth:`_FrontierLanes.run` per chunk of lanes.  ``select`` picks
    each lane's answer among its final points, the scalar selection
    over the final row; the answer is reconstructed and scored by the
    real :func:`~repro.core.evaluation.evaluate_mapping`, ``score(ev)``
    being its *objective* value.
    """
    rows = _resolve_rows(ensemble, rows)
    n_pts = len(bounds)
    out = UnitResults.empty(len(rows), n_pts, objective)
    if len(rows) == 0:
        return out
    _require_homogeneous_rows(ensemble, rows, kernel)
    check_bounds(bounds)

    dp = _FrontierLanes(ensemble, rows)
    P_pts = np.array([float(P) for P, _ in bounds])
    L_pts = np.array([float(L) for _, L in bounds])
    budgets = (L_pts[None, :] - dp.total_compute[:, None]).ravel()
    lanes = np.flatnonzero(budgets >= 0)  # lane id = ri * n_pts + pt
    for start in range(0, lanes.size, _CHUNK):
        ids = lanes[start:start + _CHUNK]
        ris, pts = np.divmod(ids, n_pts)
        for lane, pieces in dp.witnesses(ris, P_pts[pts], budgets[ids], select, floor):
            ri, pt = int(ris[lane]), int(pts[lane])
            row = int(rows[ri])
            ev = evaluate_mapping(
                _mapping(ensemble.chain(row), ensemble.platform(row), pieces)
            )
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

    One lane-vectorized frontier DP over every (row, sweep point),
    each lane answered by its most reliable final point.
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
        select=_most_reliable_lanes,
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

    The same lane-vectorized frontier DP as :func:`batch_pareto_dp`,
    each lane answered by its cheapest final point meeting the floor.
    """
    if objective != "latency":
        raise BatchUnsupported(
            f"the batched dp-latency kernel covers objective 'latency' only, "
            f"got {objective!r}",
            reason="objective",
        )
    return _frontier_kernel(
        ensemble, bounds, rows, "dp-latency", objective,
        select=_cheapest_meeting_lanes,
        score=lambda ev: ev.worst_case_latency,
        floor=floor_log_reliability(min_reliability),
    )
