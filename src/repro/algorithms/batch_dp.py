"""Batched exact-DP kernels: dp-period, dp-latency and pareto-dp.

The exact homogeneous cells: one kernel call runs
:func:`~repro.algorithms.minimize_period` /
:func:`~repro.algorithms.minimize_latency` /
:func:`~repro.algorithms.pareto_dp_best` over every row of a
homogeneous ensemble group at every sweep point, bit-identical to the
per-row loop (same bit-identity contract as
:mod:`repro.algorithms.batch` — see that module's docstring for the
rules the style below follows).

* **pareto-dp** (:func:`batch_pareto_dp`) and **dp-latency**
  (:func:`batch_minimize_latency`) — the scalar paths run one frontier
  DP per (row, point) with the *latency budget* as a pruning bound.
  The kernels run that DP lane-vectorized (:class:`_FrontierLanes`):
  one lane per (row, sweep point), each with its own period admission
  mask and its exact budget, so no point shares or widens another's
  run.  Every row's :class:`~repro.algorithms._hom_dp.HomTable`, the
  table the scalar DPs read, is built once and stacked over rows.
  A DP row's frontier points of all lanes live in flat columns; each
  row is filled by extending all earlier points through their lanes'
  admitted intervals at once; the candidates that their state's best
  candidate dominates are dropped, and a stable sort reduces every
  ``(lane, k)`` state to its Pareto set.  The tie rule is
  :meth:`~repro.util.pareto.ParetoFrontier.insert`'s: of two points
  equal in cost and value, the first inserted (scalar loop order:
  source row, source ``k``, source cost) stays, so witnesses match the
  scalar parent walk.  Each lane is answered by the scalar selection
  (most reliable point, or cheapest meeting the floor) over its final
  row.  Lanes run in chunks of :data:`_CHUNK` to bound memory.

* **dp-period** (:func:`batch_minimize_period`) — the scalar path
  binary-searches the ``O(n^2)`` candidate periods, probing each with
  the most reliable mapping within the candidate: the Algorithm 2 DP
  when the latency is unbounded, the frontier DP otherwise.  The
  kernel keeps one *lane* per (row, sweep point) and runs every probe
  round over the not-yet converged lanes at once, each against its
  own candidate: the unbounded-latency lanes through one
  lane-vectorized Algorithm 2 DP (:func:`_lane_dp`), the others
  through :class:`_FrontierLanes` chunks answered by their most
  reliable final point.  The candidate periods and both probes read
  the one :class:`_FrontierLanes` table build of the call, and both
  probes admit intervals through its one lane admission mask
  (:meth:`_FrontierLanes.admitted`).  Both compare the DP's
  log-reliability with the floor, as the scalar ones do, so each
  lane's ``(lo, hi)`` trajectory and probe count replicate the scalar
  bisection exactly.
  The scalar witness is the mapping probed at the final
  ``candidates[hi]``; the DPs are deterministic, so one
  parent-tracked round at that bound reconstructs it.

Every witness is walked back by the scalar DPs' one walk,
:func:`~repro.algorithms._hom_dp.walk`, into ``(j, i, q)`` pieces: the
per-row path turns them into a mapping
(:meth:`~repro.algorithms._hom_dp.HomTable.mapping`) and scores it with
:func:`~repro.core.evaluation.evaluate_mapping`.  The kernels score
all their witnesses in columns instead, one
:func:`~repro.algorithms.batch.score_hom_divisions` call per interval
count: the scorer the heuristic kernel runs on its candidates, which
replicates ``evaluate_mapping``'s reliability, worst-case period and
worst-case latency bit for bit and skips its Eq. (3) expected costs,
which no result records.  Every kernel returns a
:class:`~repro.algorithms.result.UnitResults`.  dp-period fills its
per-row ``infos`` with the ``probes`` counts the per-row path would
have accumulated, so harness events and cache record bytes stay
identical; the frontier kernels leave them ``None`` (their scalar
twins report no per-unit info).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms._hom_dp import HomTable, table_witness, walk
from repro.algorithms.batch import (
    _resolve_rows, check_bounds, record_solved, score_hom_divisions,
)
from repro.algorithms.result import UnitResults
from repro.util import logrel
from repro.util.logrel import from_reliability

__all__ = ["batch_minimize_period", "batch_minimize_latency", "batch_pareto_dp"]


def _require_homogeneous_rows(ensemble, rows: np.ndarray, kernel: str) -> None:
    if not ensemble.homogeneous_rows()[rows].all():
        raise ValueError(
            f"the batched {kernel} kernel requires fully homogeneous rows "
            "(the Section 5 DPs are only optimal there; Section 6 proves "
            "the heterogeneous problem NP-complete)"
        )


def _record_witnesses(out: UnitResults, ensemble, rows: np.ndarray, found: list,
                      objective: str) -> None:
    """Score every ``(ri, pt, pieces)`` witness of *found* — row
    ``rows[ri]`` at point ``pt`` — into *out*, in columns: one
    :func:`~repro.algorithms.batch.score_hom_divisions` call per
    interval count."""
    groups: dict = {}
    for ri, pt, pieces in found:
        groups.setdefault(len(pieces), []).append((ri, pt, pieces))
    for group in groups.values():
        ri, pt = np.array([(ri, pt) for ri, pt, _ in group], dtype=np.int64).T
        pieces = np.array([pieces for _, _, pieces in group], dtype=np.int64)
        bnd = np.concatenate([pieces[:, :1, 0], pieces[:, :, 1]], axis=1)
        ell, wp, wl = score_hom_divisions(ensemble, rows[ri], bnd, pieces[:, :, 2])
        record_solved(out, (ri, pt), ell, wp, wl, objective)


def _lane_dp(tables: "_FrontierLanes", lanes: np.ndarray, P: np.ndarray, track: bool):
    """Lane-vectorized Algorithm 1/2 core over homogeneous rows.

    Runs the ``F`` recurrence of the scalar
    :func:`~repro.algorithms._hom_dp.hom_reliability_dp` on the stacked
    row tables of a :class:`_FrontierLanes`, so one table build serves
    both probes.  A *lane* is one (row, period bound) pair: lane ``l``
    solves table row ``lanes[l]`` under period bound ``P[l]``, all at
    once.  Returns ``(F, reach, parent_j, parent_q)``: the values, which
    states are reachable (kept apart from the values, as in the scalar
    DP) and the parents (``None`` unless *track*);
    :func:`~repro.algorithms._hom_dp.table_witness` walks back one
    lane's witness from ``F[:, l]``, ``reach[:, l]`` and its parents.
    """
    n, p, kmax = tables.n, tables.p, tables.kmax
    L = lanes.size
    F = np.full((n + 1, L, p + 1), -math.inf)
    F[0, :, 0] = 0.0
    reach = np.zeros((n + 1, L, p + 1), dtype=bool)
    reach[0, :, 0] = True
    pj = pq = None
    if track:
        pj = np.full((n + 1, L, p + 1), -1, dtype=np.int64)
        pq = np.full((n + 1, L, p + 1), -1, dtype=np.int64)
    adm = tables.admitted(lanes, P)
    for i in range(1, n + 1):
        row_i, reach_i = F[i], reach[i]
        for j in range(i):
            ok = adm[:, j, i]
            if not ok.any():
                continue
            # Only lanes whose bound admits [j, i) extend their reachable
            # states of row j — the masked twin of the scalar admission.
            src = reach[j] & ok[:, None]
            stg = tables.stage[lanes, j, i]
            row_j = F[j]
            for q in range(1, kmax + 1):
                cand = row_j[:, : p + 1 - q] + stg[:, q - 1 : q]
                dest = row_i[:, q:]
                better = src[:, : p + 1 - q] & ((cand > dest) | ~reach_i[:, q:])
                if better.any():
                    dest[better] = cand[better]
                    reach_i[:, q:][better] = True
                    if track:
                        li, ki = np.nonzero(better)
                        pj[i, li, ki + q] = j
                        pq[i, li, ki + q] = q
    return F, reach, pj, pq


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
    per sweep point, finite and infinite latency bounds alike.

    ``infos[row]`` is ``{"probes": total}`` over the row's feasible
    points (``None`` when every point is infeasible — the scalar
    infeasible result records no probe count).
    """
    if objective != "period":
        raise ValueError(
            f"the batched dp-period kernel covers objective 'period' only, "
            f"got {objective!r}"
        )
    rows = _resolve_rows(ensemble, rows)
    n_pts = len(bounds)
    r = len(rows)
    out = UnitResults.empty(r, n_pts, objective)
    if r == 0:
        return out
    _require_homogeneous_rows(ensemble, rows, "dp-period")
    check_bounds(bounds)

    floor = from_reliability(min_reliability)
    # One table build serves the candidates and both probes.
    front = _FrontierLanes(ensemble, rows)
    cands = [table.candidate_periods() for table in front.tables]
    P_pts = np.array([float(P) for P, _ in bounds])
    counts = np.concatenate([np.searchsorted(c, P_pts, side="right") for c in cands])
    # Candidate c of lane row ri is period[ri, c] (inf-padded).
    period = np.full((r, max(c.size for c in cands)), math.inf)
    for ri, c in enumerate(cands):
        period[ri, : c.size] = c

    # Lane id = ri * n_pts + pt.  Its probe is the frontier DP when its
    # latency bound is finite, as in the scalar minimize_period.
    lane_row = np.repeat(np.arange(r), n_pts)
    L_lane = np.tile([float(L) for _, L in bounds], r)
    finite = ~np.isinf(L_lane)
    # inf - x keeps the unbounded lanes' budgets infinite.
    budget = L_lane - front.total_compute[lane_row]

    def chunks(ids):
        """The finite-latency lanes of *ids*, as positions in *ids*, in
        frontier-DP chunks."""
        sel = np.flatnonzero(finite[ids])
        return [sel[start:start + _CHUNK] for start in range(0, sel.size, _CHUNK)]

    def probe(ids, idx):
        """Whether lane ``ids[x]``'s most reliable mapping within its
        candidate ``idx[x]`` meets the floor."""
        P = period[lane_row[ids], idx]
        ok = np.zeros(ids.size, dtype=bool)
        sel = np.flatnonzero(~finite[ids])
        if sel.size:
            F, reach, _, _ = _lane_dp(front, lane_row[ids[sel]], P[sel], track=False)
            ok[sel] = reach[-1, :, 1:].any(axis=1) & (F[-1, :, 1:].max(axis=1) >= floor)
        for part in chunks(ids):
            lane, _, _, _, _, _, value, picks = front.answers(
                lane_row[ids[part]], P[part], budget[ids[part]], _most_reliable_lanes, floor
            )
            ok[part[lane[picks]]] = value[picks] >= floor
        return ok

    # The loosest admissible candidate first: lanes with none within
    # max_period, or with a latency bound below the compute bound, are
    # infeasible before any probe, and so are lanes it refuses (scalar
    # infeasible results record no probe count).
    probes = np.zeros(r * n_pts, dtype=np.int64)
    ids = np.flatnonzero((counts > 0) & ~(budget < 0))
    hi = counts[ids] - 1
    ok = probe(ids, hi)
    ids, hi = ids[ok], hi[ok]
    probes[ids] = 1
    lo = np.zeros_like(hi)
    while True:
        act = np.flatnonzero(lo < hi)
        if act.size == 0:
            break
        mid = (lo[act] + hi[act]) // 2
        probes[ids[act]] += 1
        okm = probe(ids[act], mid)
        hi[act[okm]] = mid[okm]
        lo[act[~okm]] = mid[~okm] + 1

    # One parent-tracked round at candidates[hi] reproduces the scalar
    # witness (the DPs are deterministic and the scalar keeps the
    # mapping probed at its final hi).
    P = period[lane_row[ids], hi]
    found = []
    sel = np.flatnonzero(~finite[ids])
    if sel.size:
        F, reach, pj, pq = _lane_dp(front, lane_row[ids[sel]], P[sel], track=True)
        found += [
            (ids[x], table_witness(F[:, a], reach[:, a], pj[:, a], pq[:, a]))
            for a, x in enumerate(sel)
        ]
    for part in chunks(ids):
        found += [
            (ids[part[lane]], pieces)
            for lane, pieces in front.witnesses(
                lane_row[ids[part]], P[part], budget[ids[part]], _most_reliable_lanes, floor
            )
        ]
    _record_witnesses(
        out, ensemble, rows,
        [(*divmod(int(lane_id), n_pts), pieces) for lane_id, pieces in found],
        objective,
    )

    for ri, total in enumerate(probes.reshape(r, n_pts).sum(axis=1).tolist()):
        out.infos[ri] = {"probes": total} if total > 0 else None
    return out


#: Lanes per frontier-DP chunk.  A row's candidate columns hold about
#: ``kmax`` points per earlier frontier point of the chunk, so the chunk
#: bounds the engine's memory; the per-row array ops amortize well
#: before it.
_CHUNK = 48


class _FrontierLanes:
    """Lane-vectorized frontier DP over homogeneous rows.

    ``tables[r]`` is row ``r``'s :class:`~repro.algorithms._hom_dp.HomTable`
    (its candidate periods and witness mappings come from there), and
    the engine stacks the quantities the lanes read:
    ``comm_time[r, i]``, and per interval ``[j, i)`` its compute time
    ``wtime[r, j, i]`` and replica-count stage table
    ``stage[r, j, i, q - 1]`` (one broadcast ``parallel_k_many`` over
    all intervals; ``j >= i`` entries are never read).  A *lane* is one
    (row, sweep point) with its own period bound and communication
    budget; :meth:`run` executes the DP for many lanes at once.
    """

    __slots__ = ("tables", "n", "p", "kmax", "total_compute", "comm_time", "wtime", "stage")

    def __init__(self, ensemble, rows: np.ndarray) -> None:
        self.tables = [HomTable(ensemble.chain(int(r)), ensemble.platform(int(r))) for r in rows]
        n, p, kmax = self.tables[0].n, self.tables[0].p, self.tables[0].kmax
        prefix, s, lam, ell_comm, comm_time, total_compute = map(np.array, zip(*(
            (t.prefix, t.s, t.lam, t.ell_comm, t.comm_time, t.total_compute)
            for t in self.tables
        )))
        s, lam = s[:, None, None], lam[:, None, None]
        # work[r, j, i] = W(j, i); the elementwise twins of the scalar
        # wtime and stage_of expressions, operation for operation.
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

    def admitted(self, lane_row: np.ndarray, P: np.ndarray) -> np.ndarray:
        """``adm[l, j, i]``: whether interval ``[j, i)`` — its compute
        time and both communications — fits lane ``l``'s period bound
        ``P[l]``; the lanes' twin of
        :meth:`~repro.algorithms._hom_dp.HomTable.admitted`."""
        fits = ~(self.comm_time[lane_row] > P[:, None])
        return fits[:, :, None] & ~(self.wtime[lane_row] > P[:, None, None]) & fits[:, None, :]

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

        Most candidates (about nine in ten on section8-hom) are beaten
        by their state's best candidate, and :func:`_undominated` drops
        them before the sort.  That is exact: each dropped candidate
        has a lower value than a kept one of its state that costs no
        more, so the sort puts the kept one first, and the running max
        rejects the dropped one and would not have risen at it.  The
        Pareto set, its order and its tie winners stay as they are.
        """
        n, p, kmax = self.n, self.p, self.kmax
        n_lanes = lane_row.size
        ct = self.comm_time[lane_row]
        adm = self.admitted(lane_row, P)
        qs = np.arange(1, kmax + 1, dtype=np.int32)

        # A point's state packs (lane, k) as lane * (p + 1) + k.  The
        # columns grow by doubling; the points so far are cols[:, :size].
        state = np.arange(n_lanes, dtype=np.int32) * (p + 1)
        cols = [state, np.zeros(n_lanes, dtype=np.int32), np.zeros(n_lanes, dtype=np.int32),
                np.full(n_lanes, -1, dtype=np.int32), np.zeros(n_lanes), np.zeros(n_lanes)]
        size = n_lanes
        # Candidates past p processors go to one spare state, after
        # every lane's, and are dropped with it.
        spare = n_lanes * (p + 1)
        for i in range(1, n + 1):
            state, t, _, _, cost, value = (col[:size] for col in cols)
            lane, k = np.divmod(state, p + 1)
            new_cost = cost + ct[:, i].take(lane)
            src = np.flatnonzero(
                adm[:, :, i].ravel().take(lane * (n + 1) + t)
                & (new_cost <= budget.take(lane)) & (k < p)
            ).astype(np.int32)
            if src.size == 0:
                continue
            # Candidate x * kmax + q - 1 extends point src[x] on q replicas.
            c_state = state.take(src)[:, None] + qs
            c_state[k.take(src)[:, None] + qs > p] = spare
            c_state = c_state.ravel()
            stage_i = self.stage[lane_row, :, i].reshape(-1, kmax)
            c_value = (value.take(src)[:, None] + stage_i.take(
                lane.take(src) * (n + 1) + t.take(src), axis=0
            )).ravel()
            kept = _undominated(c_state, np.repeat(new_cost.take(src), kmax), c_value)
            kept = kept[c_state.take(kept) != spare]
            c_src, c_state, c_value = src.take(kept // kmax), c_state.take(kept), c_value.take(kept)
            order = _pareto_order(c_state, _dense_rank(new_cost.take(c_src)), c_value)
            up, s_new = c_src[order], c_state[order]
            block = [s_new, np.full(up.size, i, dtype=np.int32), s_new - state[up],
                     up, new_cost[up], c_value[order]]
            end = size + up.size
            if end > cols[0].size:
                cap = max(end, 2 * cols[0].size)
                cols = [np.concatenate((col[:size], np.empty(cap - size, col.dtype)))
                        for col in cols]
            for col, b in zip(cols, block):
                col[size:end] = b
            size = end
        cols = [col[:size] for col in cols]
        lane, k = np.divmod(cols[0], p + 1)
        return [lane, cols[1], k, *cols[2:]]

    def answers(self, lane_row: np.ndarray, P: np.ndarray, budget: np.ndarray, select,
                floor: float):
        """:meth:`run`'s columns, followed by the indices of the points
        ``select`` picks as the lanes' answers (the scalar selection
        over each lane's final row; a lane without one has none)."""
        cols = self.run(lane_row, P, budget)
        lane, t, k, _, _, cost, value = cols
        final = np.flatnonzero(t == self.n)
        return (*cols, final[select(lane[final], k[final], cost[final], value[final], floor)])

    def witnesses(
        self, lane_row: np.ndarray, P: np.ndarray, budget: np.ndarray, select, floor: float
    ) -> list:
        """``(lane, pieces)`` for every lane :meth:`answers`: the parent
        walk from its answer gives the ``(j, i, q)`` pieces of the
        witness, in chain order."""
        lane, t, _, q, parent, _, _, picks = self.answers(lane_row, P, budget, select, floor)

        def step(i: int, x: int):
            up = int(parent[x])
            return int(t[up]), int(q[x]), up

        return [(int(lane[x]), walk(self.n, x, step)) for x in picks.tolist()]


def _dense_rank(x: np.ndarray) -> np.ndarray:
    """Order-preserving ranks ``0, 1, ...`` of *x*; equal values share one."""
    o = np.argsort(x)
    xs = x[o]
    step = np.zeros(x.size, dtype=np.int32)
    np.not_equal(xs[1:], xs[:-1], out=step[1:])
    rank = np.empty_like(step)
    rank[o] = np.cumsum(step, out=step)
    return rank


def _undominated(seg: np.ndarray, cost: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The indices of the points not beaten by their segment's best: a
    point stays iff it attains its segment's largest value or costs
    strictly less than the cheapest point that does.
    :func:`_pareto_order` over the kept points equals it over all of
    them (see :meth:`_FrontierLanes.run`)."""
    n_seg = int(seg.max()) + 1
    top = np.full(n_seg, -math.inf)
    np.maximum.at(top, seg, value)
    at_top = value == top.take(seg)
    cheapest = np.full(n_seg, math.inf)
    np.minimum.at(cheapest, seg[at_top], cost[at_top])
    return np.flatnonzero(at_top | (cost < cheapest.take(seg)))


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
                     floor: float = -math.inf):
    """The shared body of the frontier-DP kernels.

    One lane per (row, sweep point) with a non-negative communication
    budget — a latency bound below the compute lower bound is
    infeasible before any DP runs, as in the scalar early return — and
    one :meth:`_FrontierLanes.run` per chunk of lanes.  ``select`` picks
    each lane's answer among its final points, the scalar selection
    over the final row; the answers are reconstructed and scored by
    :func:`_record_witnesses`.
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
    found = []
    for start in range(0, lanes.size, _CHUNK):
        ids = lanes[start:start + _CHUNK]
        ris, pts = np.divmod(ids, n_pts)
        found += [
            (ris[lane], pts[lane], pieces)
            for lane, pieces in dp.witnesses(ris, P_pts[pts], budgets[ids], select, floor)
        ]
    _record_witnesses(out, ensemble, rows, found, objective)
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
        raise ValueError(
            f"the batched pareto-dp kernel covers objective 'reliability' "
            f"only, got {objective!r}"
        )
    return _frontier_kernel(
        ensemble, bounds, rows, "pareto-dp", objective,
        select=_most_reliable_lanes,
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
        raise ValueError(
            f"the batched dp-latency kernel covers objective 'latency' only, "
            f"got {objective!r}"
        )
    return _frontier_kernel(
        ensemble, bounds, rows, "dp-latency", objective,
        select=_cheapest_meeting_lanes,
        floor=from_reliability(min_reliability),
    )
