"""Batched solving kernels over :class:`~repro.core.ensemble.Ensemble` columns.

PR 5 made instance *storage* columnar; this module makes the *solving*
columnar too.  One kernel call evaluates a Section 7 heuristic across
every row of an ensemble — shared interval enumeration, batched
log-reliability arithmetic, vectorized feasibility masks — instead of
one object-level :func:`~repro.algorithms.heuristic_best` solve per
instance.

Bit-identity contract
---------------------
The kernels reproduce the per-instance path **bit for bit** — same
``solved`` flags, same failure probabilities, same objective values —
so cached sweep entries written by either path are interchangeable.
That contract dictates the implementation style:

* NumPy's SIMD transcendentals (``np.log`` & co.) agree with
  themselves across array shapes and strides but differ from
  ``math.log`` by an occasional ulp.  Every step the scalar path
  computes through ``math.*`` (``logrel.log_failure``, the
  ``logrel.parallel`` tail, ``-expm1`` / ``exp`` conversions) is
  therefore mapped element-wise over the *very same* scalar functions
  (:func:`numpy.frompyfunc`), while steps the scalar path already runs
  through NumPy (``logrel.log1mexp`` on allocation-score pairs, prefix
  sums, stable argsorts) stay vectorized.
* Sequential accumulations (``sum()`` starting at ``0``) are
  replicated as sequential masked adds — ``k`` rounded additions are
  not ``k * x``.
* Tie-breaks (the allocation heap's smallest-index pop, the DP's
  strict ``<``, the selection's strict ``>``) map onto
  first-occurrence ``argmax`` / ``argmin``.

Scope
-----
The heuristic kernels cover homogeneous *and* heterogeneous rows of
the paper's ``"reliability"`` objective, with or without a reliability
floor, for unseeded methods, under both selection rules of
:func:`~repro.algorithms.heuristic_best`:

* **Homogeneous rows** with ``allocation="auto"`` — divisions and
  Algo-Alloc are both bounds-independent, so one candidate table
  serves every sweep point (:class:`_HomTable`).
* **Heterogeneous rows**, and every row with ``allocation="het"`` —
  divisions are still chain-only, but the Section 7.2 allocation
  filters on the period bound, so every probe re-runs a lockstep
  allocation across all rows at once (:class:`_HetTable` /
  :func:`_algo_alloc_het_lockstep`).  ``allocation="het"`` is the
  paper's Section 8.2 experiment code (``heur-l-paper`` /
  ``heur-p-paper``), which runs that allocation on the homogeneous
  counterpart platform too.
* **Selection** — ``"feasible-best"`` takes the most reliable
  candidate meeting the bounds and the floor; ``"best-then-check"``
  takes the most reliable allocated candidate and then checks it
  (:func:`_select`).  The two disagree on homogeneous rows as well:
  a candidate's period and latency depend on its division.

Other objectives raise :class:`BatchUnsupported` (with a
machine-readable ``reason``), and the harness falls back to the
per-row path.  Fallback is a contract, not an error.  The converse-objective kernels live in
:mod:`repro.algorithms.batch_dp` (dp-period / dp-latency) and
:mod:`repro.algorithms.batch_search` (the bisection searches, built on
this module's probe tables).

Result contract
---------------
Every kernel returns a :class:`UnitResults` — ``(rows, points)``
arrays of solved flags, failure probabilities, achieved objective
values and the witness's worst-case period and latency, plus one info
dict (or ``None``) per row — and so does the harness's per-row loop.
:meth:`UnitResults.empty` owns the fill of infeasible cells.

Entry points
------------
:func:`batch_heuristic_best` is the kernel;
:func:`heuristic_solve_batch` packages it as the ``solve_batch``
capability the method registry attaches to ``heur-l`` / ``heur-p`` /
``heuristic`` and to the paper variants ``heur-l-paper`` /
``heur-p-paper`` (see :mod:`repro.experiments.methods`);
:func:`heuristic_probe_tables` exposes the per-platform-kind probe
tables the search kernels bisect over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.heuristics import ALLOCATIONS, SELECTIONS
from repro.util import logrel

__all__ = [
    "BatchUnsupported",
    "UnitResults",
    "batch_heuristic_best",
    "check_bounds",
    "floor_log_reliability",
    "heuristic_probe_tables",
    "heuristic_solve_batch",
]


class BatchUnsupported(Exception):
    """The batched kernel does not cover this ensemble/problem shape.

    Raised *before* any work happens; the caller runs the per-row path
    instead.  ``reason`` is a short machine-readable class
    (``"objective"``, ``"floor"``, ``"heterogeneous"``,
    ``"latency-bound"``, ...) that the harness counts per fallback
    (``sweep.units.fallback``) so shrinking kernel coverage is
    observable rather than silent; the message stays the human story.
    """

    def __init__(self, message: str, *, reason: str = "unsupported") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class UnitResults:
    """Per-(row, sweep point) results: the one solve-result contract.

    Kernels, the harness's per-row loop and worker shards all return
    this.  ``solved``, ``failure``, ``values``, ``period`` and
    ``latency`` have shape ``(rows, points)``; ``values`` holds each
    point's achieved objective value
    (:meth:`~repro.algorithms.result.SolveResult.objective_value`), and
    ``period`` / ``latency`` the witness mapping's worst-case period
    and latency.  ``infos`` has one entry per row: the solve details a
    search method aggregates over the row's points (``probes`` totals,
    a ``converged`` flag), or ``None`` for methods that report none.
    """

    #: The per-(row, point) arrays, in record order.
    ARRAYS = ("solved", "failure", "values", "period", "latency")

    solved: np.ndarray
    failure: np.ndarray
    values: np.ndarray
    period: np.ndarray
    latency: np.ndarray
    infos: list

    @classmethod
    def empty(cls, n_rows: int, n_points: int, objective: str) -> "UnitResults":
        """All-infeasible results: failure 1.0, period and latency
        ``inf``, and value 0.0 for ``"reliability"`` or ``inf`` for the
        minimized objectives (the
        :meth:`~repro.algorithms.result.SolveResult.objective_value`
        convention for an infeasible solve)."""
        shape = (n_rows, n_points)
        return cls(
            solved=np.zeros(shape, dtype=bool),
            failure=np.ones(shape, dtype=float),
            values=np.full(shape, 0.0 if objective == "reliability" else math.inf),
            period=np.full(shape, math.inf),
            latency=np.full(shape, math.inf),
            infos=[None] * n_rows,
        )

    def set_row(self, row: int, other: "UnitResults", r: int) -> None:
        """Copy row *r* of *other* (arrays and info) into row *row*."""
        for name in self.ARRAYS:
            getattr(self, name)[row] = getattr(other, name)[r]
        self.infos[row] = other.infos[r]


# Element-wise maps over the exact scalar functions the per-instance
# path calls — the ulp-level contract (see the module docstring).
_log_failure_map = np.frompyfunc(logrel.log_failure, 1, 1)
_failure_map = np.frompyfunc(logrel.failure, 1, 1)
_reliability_map = np.frompyfunc(logrel.reliability, 1, 1)


def _parallel_tail(log_prod_f: float) -> float:
    """The tail of :func:`logrel.parallel` after the failure-log sum.

    Replicates its branch structure exactly: a ``-inf`` product means
    some branch is perfect (stage reliability 1), a ``0.0`` product
    means every branch certainly fails, and otherwise the two-branch
    log1mexp evaluates ``log(1 - prod f)``.
    """
    if log_prod_f == -math.inf:
        return logrel.PERFECT
    if log_prod_f == 0.0:
        return -math.inf
    if log_prod_f > -math.log(2.0):
        return math.log(-math.expm1(log_prod_f))
    return math.log1p(-math.exp(log_prod_f))


_parallel_tail_map = np.frompyfunc(_parallel_tail, 1, 1)


def _pyfloat(mapped: np.ndarray) -> np.ndarray:
    """Cast a ``frompyfunc`` object-array result back to float64."""
    return mapped.astype(float)


def _check_heuristic(which: str, selection: str, allocation: str) -> None:
    """Reject an unknown heuristic, selection rule or allocation mode."""
    if which not in ("heur-l", "heur-p", "both"):
        raise ValueError(f"unknown heuristic {which!r}")
    if selection not in SELECTIONS:
        raise ValueError(
            f"unknown selection rule {selection!r}; expected one of {SELECTIONS}"
        )
    if allocation not in ALLOCATIONS:
        raise ValueError(
            f"unknown allocation mode {allocation!r}; expected one of {ALLOCATIONS}"
        )


def _check_supported(objective: str) -> None:
    if objective != "reliability":
        raise BatchUnsupported(
            f"batched heuristics cover objective 'reliability' only, "
            f"got {objective!r}",
            reason="objective",
        )


def floor_log_reliability(min_reliability: float) -> float:
    """The reliability floor as a log-probability (``-inf`` = none).

    The kernel-side twin of :attr:`repro.solve.Problem.min_log_reliability`
    — same special case, same conversion — so a floor travels through
    the batched path as exactly the number the scalar solvers receive.
    """
    v = float(min_reliability)
    if v == 0.0:
        return -math.inf
    return logrel.from_reliability(v)


def _resolve_rows(ensemble, rows) -> np.ndarray:
    """A kernel's ``rows`` argument as an index array (default: all)."""
    if rows is None:
        rows = range(ensemble.n_instances)
    return np.asarray(list(rows), dtype=np.int64)


def check_bounds(bounds: Sequence[tuple[float, float]]) -> None:
    """Reject a sweep point whose bound is not ``> 0`` (NaN included)."""
    for P, L in bounds:
        if not float(P) > 0 or not float(L) > 0:
            raise ValueError("bounds must be > 0")


def _heur_l_boundaries(output: np.ndarray, m: int) -> np.ndarray:
    """Algorithm 3 boundaries for every row: ``(r, m + 1)`` ints.

    Cuts at the ``m - 1`` smallest output costs among tasks
    ``tau_1 .. tau_{n-1}`` — the stable argsort matches the scalar
    path's tie-break by chain position.
    """
    r, n = output.shape
    bnd = np.empty((r, m + 1), dtype=np.int64)
    bnd[:, 0] = 0
    bnd[:, m] = n
    if m > 1:
        order = np.argsort(output[:, : n - 1], axis=1, kind="stable")
        bnd[:, 1:m] = np.sort(order[:, : m - 1], axis=1) + 1
    return bnd


def _heur_p_tables(
    work: np.ndarray, output: np.ndarray, bandwidth: float, M: int
) -> np.ndarray:
    """Algorithm 4's DP parent table for every row, shared across ``m``.

    ``F(j, k)`` — the optimal ``k``-interval period over the first
    ``j`` tasks — does not depend on the target interval count, so one
    table to ``k = M`` serves the reconstruction for every candidate
    ``m <= M``.  Returns ``arg`` of shape ``(M + 1, r, n + 1)``; entry
    ``arg[k, :, j]`` is the optimal previous boundary ``j'`` (the
    scalar DP's first strict minimizer).
    """
    r, n = work.shape
    prefix = np.concatenate(
        [np.zeros((r, 1)), np.cumsum(work, axis=1)], axis=1
    )
    out_time = output / bandwidth
    ridx = np.arange(r)

    INF = math.inf
    F_prev = np.full((r, n + 1), INF)
    F_prev[:, 1:] = np.maximum(prefix[:, 1:], out_time)
    arg = np.zeros((M + 1, r, n + 1), dtype=np.int64)
    for k in range(2, M + 1):
        F_k = np.full((r, n + 1), INF)
        for j in range(k, n + 1):
            # j' ranges over k-1 .. j-1; three-way max as in the scalar DP.
            cand = np.maximum(
                np.maximum(
                    F_prev[:, k - 1 : j],
                    prefix[:, j : j + 1] - prefix[:, k - 1 : j],
                ),
                out_time[:, j - 1 : j],
            )
            idx = np.argmin(cand, axis=1)  # first minimum = strict '<'
            F_k[:, j] = cand[ridx, idx]
            arg[k, :, j] = idx + (k - 1)
        F_prev = F_k
    return arg


def _heur_p_boundaries(arg: np.ndarray, n: int, m: int) -> np.ndarray:
    """Reconstruct the ``m``-interval boundaries from the DP table."""
    r = arg.shape[1]
    ridx = np.arange(r)
    bnd = np.empty((r, m + 1), dtype=np.int64)
    bnd[:, 0] = 0
    bnd[:, m] = n
    j = np.full(r, n, dtype=np.int64)
    for k in range(m, 1, -1):
        j = arg[k, ridx, j]
        bnd[:, k - 1] = j
    return bnd


def _algo_alloc_counts(lf: np.ndarray, p: int, K: int) -> np.ndarray:
    """Algo-Alloc's replica counts for every row at once.

    *lf* is the ``(r, m)`` per-interval branch log-failure matrix.
    Replicates the Section 5.5 greedy exactly: each step gives one
    processor to the interval with the maximal improvement score,
    ties to the smallest interval index (the heap's tuple order); the
    step count ``min(p - m, m * (K - 1))`` is uniform across rows
    because every step allocates exactly one replica per row.
    """
    r, m = lf.shape
    ridx = np.arange(r)
    counts = np.ones((r, m), dtype=np.int64)
    steps = min(p - m, m * (K - 1))
    for _ in range(steps):
        # score(j, k) = log1mexp((k+1) lf) - log1mexp(k lf), as the
        # scalar path computes it (NumPy log1mexp on both members).
        lo_cur = logrel.log1mexp(counts * lf)
        lo_nxt = logrel.log1mexp((counts + 1) * lf)
        # A certainly-failing stage scores -inf - -inf = NaN, as in the
        # scalar path; the NaN is expected, not a warning for users.
        with np.errstate(invalid="ignore"):
            score = lo_nxt - lo_cur
        score = np.where(counts < K, score, -math.inf)
        j = np.argmax(score, axis=1)  # first maximum = smallest index
        counts[ridx, j] += 1
    return counts


def _stage_log_fail(lf: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``sum()`` of ``counts`` copies of each branch log-failure.

    Sequential masked adds starting from ``+0.0`` — exactly the Python
    ``sum()`` inside :func:`logrel.parallel` (``k`` rounded additions,
    and ``0 + (-0.0)`` is ``+0.0``), which ``counts * lf`` is not.
    """
    slf = np.zeros_like(lf) + lf
    for t in range(1, int(counts.max())):
        slf = np.where(counts > t, slf + lf, slf)
    return slf


def _candidate_metrics(
    bnd: np.ndarray,
    prefix: np.ndarray,
    output: np.ndarray,
    speeds: np.ndarray,
    rates: np.ndarray,
    bandwidth: float,
    link_rate: float,
    p: int,
    K: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one candidate division for every row.

    Returns ``(log_reliability, worst_period, worst_latency)`` vectors
    of shape ``(r,)`` — the three numbers ``heuristic_best`` reads off
    a candidate's :class:`~repro.core.evaluation.MappingEvaluation`.
    """
    r = bnd.shape[0]
    ridx = np.arange(r)[:, None]

    starts, stops = bnd[:, :-1], bnd[:, 1:]
    W = prefix[ridx, stops] - prefix[ridx, starts]          # (r, m)
    out_sizes = output[ridx, stops - 1]                     # o_{l_j}
    in_sizes = np.where(starts == 0, 0.0, output[ridx, np.maximum(starts - 1, 0)])

    # One replica branch of the Fig. 5 RBD, composed exactly as
    # _branch_logrel does: (comm_in + interval) + comm_out.
    ell_in = -link_rate * (in_sizes / bandwidth)
    ell_out = -link_rate * (out_sizes / bandwidth)
    ell_int = -rates[:, None] * (W / speeds[:, None])
    branch = (ell_in + ell_int) + ell_out

    lf = _pyfloat(_log_failure_map(branch))                 # log a_j
    counts = _algo_alloc_counts(lf, p, K)
    stage_lpf = _stage_log_fail(lf, counts)
    stage_ell = _pyfloat(_parallel_tail_map(stage_lpf))

    # Serial composition and the latency sum are sequential in the
    # scalar path; replicate the addition order.
    log_rel = np.zeros(r)
    wc = W / speeds[:, None]
    comm = out_sizes / bandwidth
    wl = np.zeros(r)
    m = bnd.shape[1] - 1
    for j in range(m):
        log_rel = log_rel + stage_ell[:, j]
        wl = wl + (wc[:, j] + comm[:, j])
    wp = np.maximum(comm.max(axis=1), wc.max(axis=1))
    return log_rel, wp, wl


def _select(
    valid,
    ell: np.ndarray,
    wp: np.ndarray,
    wl: np.ndarray,
    P: np.ndarray,
    L: np.ndarray,
    floor: float,
    selection: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Select one candidate per row, as :func:`heuristic_best` does.

    *ell*, *wp*, *wl* are ``(C, r)`` candidate tables in the scalar
    loop order, *valid* marks the candidates whose allocation produced
    a mapping (``True`` broadcasts), and *P*, *L* are ``(r,)`` bounds.
    Either rule takes the first candidate attaining the largest
    ``ell`` among those it considers — the scalar strict ``>``, an
    all-``-inf`` row included:

    * ``"feasible-best"`` considers the candidates meeting both bounds
      and the floor.  Masking the floor before the argmax equals the
      scalar select-then-check, because the rule maximizes ``ell``.
    * ``"best-then-check"`` considers every valid candidate, then
      checks the winner against the bounds and the floor.

    Returns ``(feasible, ell, wp, wl)`` of the selected candidate per
    row — garbage where infeasible, masked by the caller.
    """
    meets = (wp <= P) & (wl <= L) & (ell >= floor)
    mask = np.broadcast_to(valid, ell.shape)
    if selection == "feasible-best":
        mask = mask & meets
    key = np.where(mask, ell, -math.inf)
    chosen = np.argmax(mask & (key == key.max(axis=0)), axis=0)
    ridx = np.arange(ell.shape[1])
    feasible = mask.any(axis=0) & meets[chosen, ridx]
    return feasible, ell[chosen, ridx], wp[chosen, ridx], wl[chosen, ridx]


class _HomTable:
    """Bounds-independent candidate metrics for homogeneous rows.

    On homogeneous platforms divisions *and* allocations are
    bounds-independent, so the whole candidate table — one
    ``(log_reliability, WP, WL)`` triple per (heuristic, interval
    count) per row — is computed once; probing any ``(P, L)`` point is
    a mask + argmax.  Stacking order is the scalar loop order:
    name-major, interval count ascending.
    """

    __slots__ = ("ell", "wp", "wl", "selection")

    def __init__(self, ensemble, rows: np.ndarray, names, selection: str) -> None:
        self.selection = selection
        r = len(rows)
        n, p, K = ensemble.n_tasks, ensemble.p, ensemble.max_replication
        b, link = ensemble.bandwidth, ensemble.link_failure_rate
        work = np.ascontiguousarray(ensemble.work[rows])
        output = np.ascontiguousarray(ensemble.output[rows])
        # Homogeneous rows: column 0 is every processor (the broadcast
        # property serves shared-platform ensembles transparently).
        speeds = np.ascontiguousarray(ensemble.speeds[rows, 0], dtype=float)
        rates = np.ascontiguousarray(ensemble.failure_rates[rows, 0], dtype=float)
        prefix = np.concatenate([np.zeros((r, 1)), np.cumsum(work, axis=1)], axis=1)

        M = min(n, p)
        arg = _heur_p_tables(work, output, b, M) if "heur-p" in names else None
        cand_ell, cand_wp, cand_wl = [], [], []
        for name in names:
            for m in range(1, M + 1):
                if name == "heur-l":
                    bnd = _heur_l_boundaries(output, m)
                else:
                    bnd = _heur_p_boundaries(arg, n, m)
                ell, wp, wl = _candidate_metrics(
                    bnd, prefix, output, speeds, rates, b, link, p, K
                )
                cand_ell.append(ell)
                cand_wp.append(wp)
                cand_wl.append(wl)
        self.ell = np.stack(cand_ell)                       # (C, r)
        self.wp = np.stack(cand_wp)
        self.wl = np.stack(cand_wl)

    def probe(
        self, P: np.ndarray, L: np.ndarray, floor: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Select at per-row bounds (see :func:`_select`).

        *P*, *L* are ``(r,)`` vectors (a scalar sweep point broadcasts;
        the search kernels pass per-lane bisection midpoints).  Algo-Alloc
        always produces a mapping, so every candidate is valid.
        """
        return _select(
            True, self.ell, self.wp, self.wl, P, L, floor, self.selection
        )


def _algo_alloc_het_lockstep(
    W: np.ndarray,
    tcomp: np.ndarray,
    lf_alloc: np.ndarray,
    order: np.ndarray,
    speeds: np.ndarray,
    K: int,
    P: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Section 7.2 allocation for every row at once, one candidate.

    Runs :func:`~repro.algorithms.allocation.algo_alloc_het` in
    lockstep over the processor-reliability ranks: at rank ``t`` every
    row considers *its* ``t``-th most reliable processor.  A row whose
    intervals are all seeded (or whose processor hosts nothing) marks
    the rank as a leftover — exactly the scalar ``break`` /
    ``continue`` bookkeeping, which is rank-order-preserving.

    Parameters are per-candidate tables: *W* ``(r, m)`` interval works,
    *tcomp* ``(r, p, m)`` compute times ``W_j / s_u``, *lf_alloc* the
    branch log-failures under the allocation's operand order, *order*
    the per-row reliability ranking, *P* the ``(r,)`` period bounds.

    Returns ``(assign, min_speed, valid)``: per-processor interval
    assignment (``-1`` = unused), per-interval slowest enrolled speed,
    and the rows whose every interval got seeded (the scalar path
    returns ``None`` — no mapping — for the others).
    """
    r, p, m = tcomp.shape
    ridx = np.arange(r)
    fits = tcomp <= P[:, None, None]
    empty = np.ones((r, m), dtype=bool)
    counts = np.zeros((r, m), dtype=np.int64)
    slf = np.zeros((r, m))
    assign = np.full((r, p), -1, dtype=np.int64)
    min_speed = np.full((r, m), math.inf)
    leftover = np.zeros((r, p), dtype=bool)

    # Phase 1 — seed every interval, longest hostable interval first
    # (ties to the smaller interval index: first-occurrence argmax).
    for t in range(p):
        u = order[:, t]
        cand = empty & fits[ridx, u, :]
        seed = cand.any(axis=1)
        leftover[:, t] = ~seed
        if not seed.any():
            continue
        j = np.argmax(np.where(cand, W, -math.inf), axis=1)
        rs = np.flatnonzero(seed)
        js, us = j[rs], u[rs]
        empty[rs, js] = False
        counts[rs, js] = 1
        slf[rs, js] = slf[rs, js] + lf_alloc[rs, us, js]
        assign[rs, us] = js
        min_speed[rs, js] = speeds[rs, us]
    valid = ~empty.any(axis=1)

    # Phase 2 — leftovers (in rank order) go to the interval with the
    # best reliability-improvement ratio among those they can host.
    for t in range(p):
        rows = np.flatnonzero(leftover[:, t] & valid)
        if rows.size == 0:
            continue
        u = order[rows, t]
        lf_u = lf_alloc[rows, u]                            # (k, m)
        ok = (counts[rows] < K) & fits[rows, u]
        slf_rows = slf[rows]
        # score = log1mexp(slf + lf_u) - log1mexp(slf), both members
        # through the same NumPy log1mexp the scalar path pairs up.
        lo_cur = logrel.log1mexp(slf_rows)
        lo_new = logrel.log1mexp(slf_rows + lf_u)
        # The scalar strict '>' skips NaN scores (a certainly-failing
        # stage compares -inf - -inf); argmax would propagate them.
        with np.errstate(invalid="ignore"):
            gain = np.where(ok, lo_new - lo_cur, -math.inf)
        gain = np.where(np.isnan(gain), -math.inf, gain)
        j = np.argmax(gain, axis=1)
        kidx = np.arange(rows.size)
        acc = gain[kidx, j] > 0.0
        ra, ja, ua = rows[acc], j[acc], u[acc]
        slf[ra, ja] = slf[ra, ja] + lf_alloc[ra, ua, ja]
        counts[ra, ja] += 1
        assign[ra, ua] = ja
        min_speed[ra, ja] = np.minimum(min_speed[ra, ja], speeds[ra, ua])
    return assign, min_speed, valid


class _HetTable:
    """Per-candidate tables for heterogeneous rows (divisions only).

    Divisions are chain-only and shared across sweep points; the
    Section 7.2 allocation is *bounds-dependent*, so
    :meth:`probe` re-allocates per ``(P, L)`` — the per-point
    allocation batching of the het cell.
    """

    __slots__ = (
        "order", "speeds", "rates", "K", "p", "candidates", "selection",
    )

    def __init__(self, ensemble, rows: np.ndarray, names, selection: str) -> None:
        self.selection = selection
        r = len(rows)
        n, p, K = ensemble.n_tasks, ensemble.p, ensemble.max_replication
        b, link = ensemble.bandwidth, ensemble.link_failure_rate
        work = np.ascontiguousarray(ensemble.work[rows])
        output = np.ascontiguousarray(ensemble.output[rows])
        speeds = np.ascontiguousarray(ensemble.speeds[rows], dtype=float)
        rates = np.ascontiguousarray(ensemble.failure_rates[rows], dtype=float)
        prefix = np.concatenate([np.zeros((r, 1)), np.cumsum(work, axis=1)], axis=1)

        self.speeds, self.rates, self.K, self.p = speeds, rates, K, p
        # Most reliable processors first — increasing lambda_u / s_u,
        # ties by index (stable argsort = the scalar sort key tuple).
        self.order = np.argsort(rates / speeds, axis=1, kind="stable")

        M = min(n, p)
        arg = _heur_p_tables(work, output, b, M) if "heur-p" in names else None
        ridx = np.arange(r)[:, None]
        self.candidates = []
        for name in names:
            for m in range(1, M + 1):
                if name == "heur-l":
                    bnd = _heur_l_boundaries(output, m)
                else:
                    bnd = _heur_p_boundaries(arg, n, m)
                starts, stops = bnd[:, :-1], bnd[:, 1:]
                W = prefix[ridx, stops] - prefix[ridx, starts]
                out_sizes = output[ridx, stops - 1]
                in_sizes = np.where(
                    starts == 0, 0.0, output[ridx, np.maximum(starts - 1, 0)]
                )
                ell_in = -link * (in_sizes / b)
                ell_out = -link * (out_sizes / b)
                # The allocation composes its branch differently from
                # the evaluation: one comm add, then
                # ell_comm - (lam * W) / s.  Both compositions are kept
                # — same operand order, same rounding — because the
                # greedy's decisions and the final metrics must each be
                # bit-identical to their scalar twins.
                ell_comm = ell_in + ell_out
                tcomp = W[:, None, :] / speeds[:, :, None]          # (r, p, m)
                branch_alloc = ell_comm[:, None, :] - (
                    rates[:, :, None] * W[:, None, :]
                ) / speeds[:, :, None]
                lf_alloc = _pyfloat(_log_failure_map(branch_alloc))
                self.candidates.append(
                    (W, out_sizes / b, ell_in, ell_out, tcomp, lf_alloc)
                )

    def _evaluate(self, cand, assign, min_speed):
        """``evaluate_mapping`` for one allocated candidate, every row.

        Branch log-reliabilities recompose in the evaluation's operand
        order — ``(ell_in + interval) + ell_out`` with the interval
        term ``-lam * (W / s)`` — and accumulate per stage in ascending
        processor order (the mapping stores replicas sorted).
        """
        W, comm, ell_in, ell_out, tcomp, _ = cand
        r, m = W.shape
        slf = np.zeros((r, m))
        for u in range(self.p):
            rows = np.flatnonzero(assign[:, u] >= 0)
            if rows.size == 0:
                continue
            j = assign[rows, u]
            branch = (
                ell_in[rows, j] + (-self.rates[rows, u] * tcomp[rows, u, j])
            ) + ell_out[rows, j]
            slf[rows, j] = slf[rows, j] + _pyfloat(_log_failure_map(branch))
        stage_ell = _pyfloat(_parallel_tail_map(slf))
        wc = W / min_speed
        log_rel = np.zeros(r)
        wl = np.zeros(r)
        for j in range(m):
            log_rel = log_rel + stage_ell[:, j]
            wl = wl + (wc[:, j] + comm[:, j])
        wp = np.maximum(comm.max(axis=1), wc.max(axis=1))
        return log_rel, wp, wl

    def probe(
        self, P: np.ndarray, L: np.ndarray, floor: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Allocate + evaluate + select at per-row bounds.

        Same contract as :meth:`_HomTable.probe`; every candidate's
        allocation is re-run because the Section 7.2 period filter
        ``W_j / s_u <= P`` depends on the bound, and a candidate whose
        allocation leaves an interval unseeded is not valid.
        """
        cand_valid, cand_ell, cand_wp, cand_wl = [], [], [], []
        for cand in self.candidates:
            W, _, _, _, tcomp, lf_alloc = cand
            assign, min_speed, valid = _algo_alloc_het_lockstep(
                W, tcomp, lf_alloc, self.order, self.speeds, self.K, P
            )
            ell, wp, wl = self._evaluate(cand, assign, min_speed)
            cand_valid.append(valid)
            cand_ell.append(ell)
            cand_wp.append(wp)
            cand_wl.append(wl)
        return _select(
            np.stack(cand_valid), np.stack(cand_ell), np.stack(cand_wp),
            np.stack(cand_wl), P, L, floor, self.selection,
        )


def heuristic_probe_tables(
    ensemble,
    rows: np.ndarray,
    which: str,
    selection: str = "feasible-best",
    allocation: str = "auto",
):
    """Split *rows* by table kind and build each side's probe table.

    With ``allocation="auto"`` homogeneous rows take :class:`_HomTable`
    and heterogeneous rows :class:`_HetTable`; ``allocation="het"``
    sends every row to :class:`_HetTable`.  Returns
    ``[(subset_positions, table), ...]`` where positions index into
    *rows*; the shared machinery behind :func:`batch_heuristic_best`
    and the bisection-search kernels
    (:mod:`repro.algorithms.batch_search`).  The public entry points
    validate *which*, *selection* and *allocation*.
    """
    names = ("heur-p", "heur-l") if which == "both" else (which,)
    hom = ensemble.homogeneous_rows()[rows]
    if allocation == "het":
        hom = np.zeros_like(hom)
    parts = []
    for idx, table_cls in (
        (np.flatnonzero(hom), _HomTable),
        (np.flatnonzero(~hom), _HetTable),
    ):
        if idx.size:
            parts.append((idx, table_cls(ensemble, rows[idx], names, selection)))
    return parts


def batch_heuristic_best(
    ensemble,
    bounds: Sequence[tuple[float, float]],
    *,
    rows: "Sequence[int] | None" = None,
    which: str = "both",
    selection: str = "feasible-best",
    allocation: str = "auto",
    objective: str = "reliability",
    min_reliability: float = 0.0,
) -> UnitResults:
    """Run a Section 7 heuristic on every ensemble row at every bound.

    The batched twin of solving ``heuristic_best(chain, platform,
    max_period=P, max_latency=L, which=which, selection=selection,
    allocation=allocation, min_log_reliability=floor)`` per row per
    sweep point — bit-identical to that loop, one kernel call instead.

    Parameters
    ----------
    ensemble:
        Any :class:`~repro.core.ensemble.Ensemble`: under
        ``allocation="auto"`` homogeneous rows take the
        bounds-independent candidate table and heterogeneous rows the
        per-point allocation path (mixed ensembles split).
    bounds:
        ``(max_period, max_latency)`` per sweep point.
    rows:
        Row indices to solve (default: all rows, in order).
    which:
        ``"heur-l"``, ``"heur-p"``, or ``"both"`` (candidate order
        matches :func:`~repro.algorithms.heuristic_best`).
    selection:
        ``"feasible-best"`` or ``"best-then-check"`` (see
        :func:`_select`).
    allocation:
        ``"auto"`` (Algo-Alloc on homogeneous rows, the Section 7.2
        allocation on heterogeneous ones) or ``"het"`` (the Section 7.2
        allocation on every row).
    objective:
        Must be ``"reliability"`` — anything else raises
        :class:`BatchUnsupported`.
    min_reliability:
        Reliability floor in ``[0, 1)``; the selected candidate must
        attain it (``0.0`` = no floor).

    Returns
    -------
    UnitResults
        Of shape ``(len(rows), len(bounds))``; the values are achieved
        reliabilities, and no row carries info.
    """
    _check_heuristic(which, selection, allocation)
    _check_supported(objective)
    rows = _resolve_rows(ensemble, rows)
    out = UnitResults.empty(len(rows), len(bounds), objective)
    if len(rows) == 0:
        return out

    floor = floor_log_reliability(min_reliability)
    tables = heuristic_probe_tables(ensemble, rows, which, selection, allocation)
    for idx, table in tables:
        k = idx.size
        for pt, (P, L) in enumerate(bounds):
            P_vec = np.full(k, float(P))
            L_vec = np.full(k, float(L))
            feasible, ell, wp, wl = table.probe(P_vec, L_vec, floor)
            hit, ell = idx[feasible], ell[feasible]
            out.solved[hit, pt] = True
            out.failure[hit, pt] = _pyfloat(_failure_map(ell))
            out.values[hit, pt] = _pyfloat(_reliability_map(ell))
            out.period[hit, pt] = wp[feasible]
            out.latency[hit, pt] = wl[feasible]
    return out


def heuristic_solve_batch(
    which: str, selection: str = "feasible-best", allocation: str = "auto"
):
    """Package :func:`batch_heuristic_best` as a ``solve_batch`` entry.

    The returned callable has the registry's batched-solve signature —
    ``(ensemble, bounds, *, rows, objective, min_reliability)`` — and
    is what :func:`repro.experiments.methods.register_method` attaches
    to the built-in heuristics and their paper variants.
    """
    _check_heuristic(which, selection, allocation)

    def solve_batch(
        ensemble,
        bounds,
        *,
        rows=None,
        objective="reliability",
        min_reliability=0.0,
    ):
        return batch_heuristic_best(
            ensemble,
            bounds,
            rows=rows,
            which=which,
            selection=selection,
            allocation=allocation,
            objective=objective,
            min_reliability=min_reliability,
        )

    return solve_batch
