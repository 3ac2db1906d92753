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
  therefore mapped element-wise over the *very same* libm builtins:
  :func:`numpy.frompyfunc` over ``math.expm1`` / ``math.exp`` /
  ``math.log`` / ``math.log1p``, one masked pass per scalar branch
  with the scalar's exact negations in between (±0.0, ``-inf``, NaN
  and the ``-log 2`` split included; a positive log-reliability raises
  as the scalar does).  Each element costs a C call, not a Python
  frame.  Steps the scalar path already runs through NumPy
  (``logrel.log1mexp`` on allocation-score pairs, prefix sums, stable
  argsorts) stay vectorized.
* Sequential accumulations (``sum()`` starting at ``0``) are
  replicated as sequential masked adds — ``k`` rounded additions are
  not ``k * x``.
* An exact map over many equal arguments evaluates each distinct bit
  pattern once (:func:`_map_distinct`): same bits in, same bits out.
* Tie-breaks (the allocation heap's smallest-index pop, the DP's
  strict ``<``, the selection's strict ``>``) map onto
  first-occurrence ``argmax`` / ``argmin``.

Scope
-----
The heuristic kernels cover homogeneous *and* heterogeneous rows of
the paper's ``"reliability"`` objective, with or without a reliability
floor, under both selection rules of
:func:`~repro.algorithms.heuristic_best`:

* **Homogeneous rows** with ``allocation="auto"`` — divisions and
  Algo-Alloc are both bounds-independent, so one candidate table
  serves every sweep point (:class:`_HomTable`).
* **Heterogeneous rows**, and every row with ``allocation="het"`` —
  divisions are still chain-only and tabulated once, padded to one
  width, but the Section 7.2 allocation filters on the period bound,
  so every probe re-runs it: one lockstep allocation and evaluation
  over *lanes*, one per (candidate division, row, sweep point), in
  fixed-size chunks (:class:`_HetTable`).  ``allocation="het"`` is the
  paper's Section 8.2 experiment code (``heur-l-paper`` /
  ``heur-p-paper``), which runs that allocation on the homogeneous
  counterpart platform too.
* **Selection** — ``"feasible-best"`` takes the most reliable
  candidate meeting the bounds and the floor; ``"best-then-check"``
  takes the most reliable allocated candidate and then checks it
  (:func:`_select`).  The two disagree on homogeneous rows as well:
  a candidate's period and latency depend on its division.

Each kernel serves every unit the harness can send it: a sweep's
validation (:meth:`~repro.experiments.methods.Method.check_ensemble`)
rejects an undeclared objective, or a heterogeneous ensemble for a
homogeneous-only method, before any kernel runs.  The kernels' own
guards against those shapes raise ``ValueError``.  The
converse-objective kernels live in :mod:`repro.algorithms.batch_dp`
(dp-period / dp-latency) and :mod:`repro.algorithms.batch_search`
(the bisection searches, built on this module's probe tables).

Sharing
-------
Every heuristic kernel call on an ensemble — the grid probe's
``heuristic``, ``heur-l`` / ``heur-p``, the paper variants and the
bisection searches — reads the same probe tables: one per (table
kind, heuristic), covering every row of that kind.  A table is built
when a call first asks for its heuristic and is kept with the frozen
ensemble (:meth:`~repro.core.ensemble.Ensemble.derived`), its arrays
read-only; ``which="both"`` joins the Heur-P and Heur-L tables, and
the rows, the selection rule, the bounds and the floor are arguments
of each probe, not table state.  A heterogeneous table also keeps its
last allocation lanes, keyed by the probed rows and the bytes of the
period matrix: the lanes depend on nothing else, so ``heur-l-paper``
after ``heur-l`` (or a latency bisection's every round) only
re-selects, and a period bisection, whose every round moves the
periods, holds one lane set per table at a time.

Result contract
---------------
Every kernel returns a :class:`~repro.algorithms.result.UnitResults`
— ``(rows, points)`` arrays of solved flags, failure probabilities,
achieved objective values and the witness's worst-case period and
latency, plus one info dict (or ``None``) per row — and so does the
harness's per-row loop.  :meth:`UnitResults.empty` owns the fill of
infeasible cells, and :func:`record_solved` the fill of solved ones
from their witnesses' log-reliability, worst-case period and latency.

Homogeneous scorer
------------------
One columnar scorer evaluates homogeneous mappings, one per row of
boundaries and replica counts: :func:`_interval_terms` computes each
interval's compute time, communication time and branch
log-reliability, the two ``math.*`` maps (branch log-failure, then
the stage tail after the replica sum) run through
:func:`_map_blocks`, and :func:`_compose` adds up the stages.  The
heuristic kernel runs Algo-Alloc on the branch log-failures of every
candidate division, and maps all its candidates at once because they
share most intervals; the exact DP kernels of
:mod:`repro.algorithms.batch_dp` score their witnesses through
:func:`score_hom_divisions`.  No kernel builds a
:class:`~repro.core.mapping.Mapping` or calls ``evaluate_mapping``.

Entry points
------------
:func:`batch_heuristic_best` is the kernel the method registry calls
for ``heur-l`` / ``heur-p`` / ``heuristic`` and the paper variants
``heur-l-paper`` / ``heur-p-paper`` (see
:mod:`repro.experiments.methods`);
:func:`heuristic_probe_tables` binds the shared per-platform-kind probe
tables the sweep and search kernels probe.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.algorithms.result import ALLOCATIONS, SELECTIONS, UnitResults
from repro.util import logrel
from repro.util.logrel import from_reliability
from repro.util.validation import check_bound

__all__ = [
    "batch_heuristic_best",
    "check_bounds",
    "heuristic_probe_tables",
    "record_solved",
    "score_hom_divisions",
]


def _parallel_tail(log_prod_f: float) -> float:
    """The tail of :func:`logrel.parallel` after the failure-log sum.

    Replicates its branch structure exactly: a ``-inf`` product means
    some branch is perfect (stage reliability 1), a ``0.0`` product
    means every branch certainly fails, and otherwise the two-branch
    log1mexp evaluates ``log(1 - prod f)``.  The scalar reference of
    :func:`_parallel_tail_map`.
    """
    if log_prod_f == -math.inf:
        return logrel.PERFECT
    if log_prod_f == 0.0:
        return -math.inf
    if log_prod_f > -math.log(2.0):
        return math.log(-math.expm1(log_prod_f))
    return math.log1p(-math.exp(log_prod_f))


# The libm builtins the scalar functions call, mapped element-wise: a
# C call per element and no Python frame (see the module docstring).
_expm1, _exp, _log, _log1p = (
    np.frompyfunc(fn, 1, 1) for fn in (math.expm1, math.exp, math.log, math.log1p)
)
_NEG_LOG2 = -math.log(2.0)


def _call(builtin, x: np.ndarray) -> np.ndarray:
    """*builtin* over the float array *x*, back as float64."""
    return builtin(x).astype(float)


def _log_failure_map(x) -> np.ndarray:
    """:func:`logrel.log_failure` over a float array, bit for bit.

    The scalar branches as masks: ``-inf`` at either zero,
    ``log(-expm1(x))`` above ``-log 2`` and ``log1p(-exp(x))`` elsewhere
    (NaN included), with the same exact negations in between.  A
    positive element raises what the scalar path raises (a math domain
    ``ValueError``, or ``OverflowError`` past ``expm1``'s range).
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -math.inf)
    near = x > _NEG_LOG2
    far = ~near
    near &= x != 0.0
    out[near] = _call(_log, -_call(_expm1, x[near]))
    out[far] = _call(_log1p, -_call(_exp, x[far]))
    return out


def _parallel_tail_map(x) -> np.ndarray:
    """:func:`_parallel_tail` over a float array, bit for bit: the
    :func:`_log_failure_map` branches, except that ``-inf`` maps to
    :data:`logrel.PERFECT` (``+0.0``; ``log_failure`` gives ``-0.0``)."""
    x = np.asarray(x, dtype=float)
    out = _log_failure_map(x)
    out[x == -math.inf] = logrel.PERFECT
    return out


def _failure_map(x) -> np.ndarray:
    """:func:`logrel.failure` (``-expm1``) over a float array, bit for bit."""
    return -_call(_expm1, np.asarray(x, dtype=float))


def _reliability_map(x) -> np.ndarray:
    """:func:`logrel.reliability` (``exp``) over a float array, bit for bit."""
    return _call(_exp, np.asarray(x, dtype=float))


#: Lanes per Section 7.2 allocation chunk (and values per
#: :func:`_map_distinct` chunk).  A lane's state is a few ``(M,)`` and
#: ``(p,)`` rows, so the chunk bounds the per-probe temporaries while
#: each lockstep step still spreads NumPy's per-call overhead over
#: hundreds of lanes.
_CHUNK = 512


def _map_distinct(exact_map, x: np.ndarray) -> np.ndarray:
    """*exact_map* over the 1-D float array *x*, on each distinct bit
    pattern of each :data:`_CHUNK` values once (exact: equal bits,
    equal result).  The chunks bound the temporaries."""
    out = np.empty_like(x)
    for start in range(0, x.size, _CHUNK):
        part = x[start:start + _CHUNK]
        bits, inverse = np.unique(part.view(np.int64), return_inverse=True)
        out[start:start + _CHUNK] = exact_map(bits.view(float))[inverse]
    return out


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
        raise ValueError(
            f"batched heuristics cover objective 'reliability' only, "
            f"got {objective!r}"
        )


def _resolve_rows(ensemble, rows) -> np.ndarray:
    """A kernel's ``rows`` argument as an index array (default: all)."""
    if rows is None:
        rows = range(ensemble.n_instances)
    return np.asarray(list(rows), dtype=np.int64)


def check_bounds(bounds: Sequence[tuple[float, float]]) -> None:
    """Reject a sweep point whose bound is not ``> 0`` (NaN included)."""
    for P, L in bounds:
        check_bound("max_period", P)
        check_bound("max_latency", L)


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


def _interval_terms(
    bnd: np.ndarray,
    prefix: np.ndarray,
    output: np.ndarray,
    speeds: np.ndarray,
    rates: np.ndarray,
    bandwidth: float,
    link_rate: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval terms of one division per row, on homogeneous rows.

    *bnd* is ``(r, m + 1)`` boundaries; *prefix*, *output*, *speeds*
    and *rates* are the rows' work prefix sums, output sizes, speed and
    failure rate.  Returns ``(wc, comm, branch)``, each ``(r, m)``: the
    worst-case compute time ``W / s``, the outgoing communication time
    and the log-reliability of one replica branch of the Fig. 5 RBD.
    """
    r = bnd.shape[0]
    ridx = np.arange(r)[:, None]

    starts, stops = bnd[:, :-1], bnd[:, 1:]
    W = prefix[ridx, stops] - prefix[ridx, starts]          # (r, m)
    out_sizes = output[ridx, stops - 1]                     # o_{l_j}
    in_sizes = np.where(starts == 0, 0.0, output[ridx, np.maximum(starts - 1, 0)])

    # One replica branch, composed exactly as stage_log_reliability
    # does: (comm_in + interval) + comm_out.
    comm = out_sizes / bandwidth
    wc = W / speeds[:, None]
    ell_in = -link_rate * (in_sizes / bandwidth)
    branch = (ell_in + -rates[:, None] * wc) + -link_rate * comm
    return wc, comm, branch


def _map_blocks(exact_map, blocks: list) -> list:
    """*exact_map* over a list of ``(r, m_c)`` blocks, once per
    distinct value (:func:`_map_distinct`).  The blocks are joined
    row by row, so the values one row's blocks share fall in one
    chunk."""
    joined = np.concatenate(blocks, axis=1)
    mapped = _map_distinct(exact_map, joined.ravel()).reshape(joined.shape)
    return np.split(mapped, np.cumsum([block.shape[1] for block in blocks[:-1]]), axis=1)


def _compose(
    wc: np.ndarray, comm: np.ndarray, stage_ell: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compose one division per row from its :func:`_interval_terms`
    and its stages' log-reliabilities *stage_ell*.

    Returns ``(log_reliability, worst_period, worst_latency)`` vectors
    of shape ``(r,)`` — the three numbers of the division's
    :class:`~repro.core.evaluation.MappingEvaluation`, bit for bit.
    """
    # Serial composition and the latency sum are sequential in the
    # scalar path; replicate the addition order.
    r, m = wc.shape
    log_rel = np.zeros(r)
    wl = np.zeros(r)
    for j in range(m):
        log_rel = log_rel + stage_ell[:, j]
        wl = wl + (wc[:, j] + comm[:, j])
    wp = np.maximum(comm.max(axis=1), wc.max(axis=1))
    return log_rel, wp, wl


def score_hom_divisions(
    ensemble, rows: np.ndarray, bnd: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score the mappings of homogeneous ensemble rows, one per entry.

    Entry ``x`` maps row ``rows[x]`` (rows may repeat) with boundaries
    ``bnd[x]`` (``(g, m + 1)``, one interval count per call) and
    ``counts[x, j]`` replicas on interval ``j``.  Returns
    ``(log_reliability, worst_period, worst_latency)``, bit-identical
    to :func:`~repro.core.evaluation.evaluate_mapping` of that mapping
    (processor identity is irrelevant on a homogeneous row); the exact
    DP kernels of :mod:`repro.algorithms.batch_dp` score their
    witnesses through it.
    """
    work = ensemble.work[rows]
    prefix = np.concatenate([np.zeros((len(rows), 1)), np.cumsum(work, axis=1)], axis=1)
    wc, comm, branch = _interval_terms(
        bnd, prefix, ensemble.output[rows],
        ensemble.speeds[rows, 0].astype(float),
        ensemble.failure_rates[rows, 0].astype(float),
        ensemble.bandwidth, ensemble.link_failure_rate,
    )
    [lf] = _map_blocks(_log_failure_map, [branch])
    [stage_ell] = _map_blocks(_parallel_tail_map, [_stage_log_fail(lf, counts)])
    return _compose(wc, comm, stage_ell)


def record_solved(out: UnitResults, hit, ell, wp, wl, objective: str) -> None:
    """Fill the solved cells *hit* of *out* from their witnesses'
    log-reliability *ell*, worst-case period *wp* and latency *wl*; the
    value is the *objective*'s, as
    :meth:`~repro.algorithms.result.SolveResult.objective_value` reads
    it."""
    out.solved[hit] = True
    out.failure[hit] = _failure_map(ell)
    if objective == "reliability":
        out.values[hit] = _reliability_map(ell)
    else:
        out.values[hit] = {"period": wp, "latency": wl}[objective]
    out.period[hit] = wp
    out.latency[hit] = wl


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
    """Select one candidate per (row, point), as :func:`heuristic_best` does.

    *ell*, *wp*, *wl* are ``(C, r, points)`` candidate tables in the
    scalar loop order (a size-1 point axis broadcasts), *valid* marks
    the candidates whose allocation produced a mapping (``True``
    broadcasts), and *P*, *L* are ``(r, points)`` bounds.  Either rule
    takes the first candidate attaining the largest ``ell`` among those
    it considers — the scalar strict ``>``, an all-``-inf`` row
    included:

    * ``"feasible-best"`` considers the candidates meeting both bounds
      and the floor.  Masking the floor before the argmax equals the
      scalar select-then-check, because the rule maximizes ``ell``.
    * ``"best-then-check"`` considers every valid candidate, then
      checks the winner against the bounds and the floor.

    Returns ``(feasible, ell, wp, wl)`` of the selected candidate per
    (row, point) — garbage where infeasible, masked by the caller.
    """
    meets = (wp <= P) & (wl <= L) & (ell >= floor)
    mask = np.broadcast_to(valid, meets.shape)
    if selection == "feasible-best":
        mask = mask & meets
    key = np.where(mask, ell, -math.inf)
    chosen = np.argmax(mask & (key == key.max(axis=0)), axis=0)[None]

    def pick(table: np.ndarray) -> np.ndarray:
        full = np.broadcast_to(table, meets.shape)
        return np.take_along_axis(full, chosen, axis=0)[0]

    feasible = mask.any(axis=0) & pick(meets)
    return feasible, pick(ell), pick(wp), pick(wl)


#: The candidate blocks in the scalar loop order of ``which="both"``:
#: the Heur-P candidates, then the Heur-L ones, each interval count
#: ``1 .. M``.  Each probe table holds one block.
_NAMES = ("heur-p", "heur-l")


def _freeze(table) -> None:
    """Make a shared table's arrays read-only: every method probing it
    reads them, none may write."""
    for name in table.__slots__:
        value = getattr(table, name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


class _HomTable:
    """Bounds-independent candidate metrics for homogeneous rows.

    On homogeneous platforms divisions *and* allocations are
    bounds-independent, so the whole candidate table — one
    ``(log_reliability, WP, WL)`` triple per (heuristic, interval
    count) per row — is computed once; probing any ``(P, L)`` point is
    a mask + argmax.  One table holds heuristic *name*'s candidates,
    interval count ascending.
    """

    __slots__ = ("ell", "wp", "wl")

    def __init__(self, ensemble, rows: np.ndarray, name: str) -> None:
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

        terms = [
            _interval_terms(bnd, prefix, output, speeds, rates, b, link)
            for bnd in _divisions(work, output, b, name, min(n, p))
        ]
        # The divisions share most of their intervals, so the maps run
        # over all candidates at once.
        lfs = _map_blocks(_log_failure_map, [branch for _, _, branch in terms])
        stage_ells = _map_blocks(_parallel_tail_map, [
            _stage_log_fail(lf, _algo_alloc_counts(lf, p, K)) for lf in lfs
        ])
        scored = [
            _compose(wc, comm, stage_ell)
            for (wc, comm, _), stage_ell in zip(terms, stage_ells)
        ]
        # (C, r, 1): the point axis broadcasts in _select.
        self.ell, self.wp, self.wl = (np.stack(column)[:, :, None] for column in zip(*scored))
        _freeze(self)

    def candidates(
        self, pos: np.ndarray, P: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(valid, ell, wp, wl)`` of every candidate of table rows
        *pos*, ``(candidates, rows, 1)`` each (see :func:`_probe`).
        Algo-Alloc always produces a mapping, so every candidate is
        valid, whatever the periods *P*."""
        ell, wp, wl = self.ell[:, pos], self.wp[:, pos], self.wl[:, pos]
        return np.ones(ell.shape, dtype=bool), ell, wp, wl


def _divisions(work, output, bandwidth, name, M):
    """Heuristic *name*'s candidate divisions, ``(r, m + 1)``
    boundaries each, interval count ``1 .. M``."""
    if name == "heur-l":
        for m in range(1, M + 1):
            yield _heur_l_boundaries(output, m)
    else:
        arg = _heur_p_tables(work, output, bandwidth, M)
        for m in range(1, M + 1):
            yield _heur_p_boundaries(arg, work.shape[1], m)


class _HetTable:
    """Padded candidate tables for the Section 7.2 allocation.

    Divisions are chain-only, so the per-candidate quantities are built
    once: table row ``c * R + i`` holds heuristic *name*'s candidate
    ``c`` (interval count ``c + 1``) of row ``i`` of ``R``, its ``m``
    intervals padded to
    ``M = min(n, p)`` columns (padded columns repeat column 0; the
    probe never seeds them, gives them no replica and masks them out
    of the sums).  ``iv`` maps each column to one of the rows'
    distinct intervals, whose compute time ``tcomp[iv, u]`` and branch
    log-failures ``lf_alloc[iv, u]`` and ``lf_eval[iv, u]`` on
    processor ``u`` follow the allocation's and the evaluation's
    operand orders.  The allocation is
    *bounds-dependent*, so :meth:`candidates` runs it on lanes — one
    per (candidate, row, sweep point) — in chunks of :data:`_CHUNK`,
    and keeps the last lanes it ran.
    """

    __slots__ = (
        "K", "R", "order", "speeds", "n_iv", "iv", "W", "comm", "tcomp", "lf_alloc",
        "lf_eval", "lanes",
    )

    def __init__(self, ensemble, rows: np.ndarray, name: str) -> None:
        r = len(rows)
        n, p, K = ensemble.n_tasks, ensemble.p, ensemble.max_replication
        b, link = ensemble.bandwidth, ensemble.link_failure_rate
        work = np.ascontiguousarray(ensemble.work[rows])
        output = np.ascontiguousarray(ensemble.output[rows])
        speeds = np.ascontiguousarray(ensemble.speeds[rows], dtype=float)
        rates = np.ascontiguousarray(ensemble.failure_rates[rows], dtype=float)
        prefix = np.concatenate([np.zeros((r, 1)), np.cumsum(work, axis=1)], axis=1)

        self.K, self.R, self.speeds = K, r, speeds
        # Most reliable processors first — increasing lambda_u / s_u,
        # ties by index (stable argsort = the scalar sort key tuple).
        self.order = np.argsort(rates / speeds, axis=1, kind="stable")

        # Key every candidate's intervals by (row, start, stop): the
        # divisions share most of them.
        M = min(n, p)
        span = n + 1
        bnds = list(_divisions(work, output, b, name, M))
        key = np.empty((len(bnds), r, M), dtype=np.int64)
        for c, bnd in enumerate(bnds):
            m = bnd.shape[1] - 1
            key[c, :, :m] = bnd[:, :-1] * span + bnd[:, 1:]
            key[c, :, m:] = key[c, :, :1]
        key += np.arange(r)[:, None] * span * span
        self.n_iv = np.repeat(np.array([bnd.shape[1] - 1 for bnd in bnds]), r)
        distinct, iv = np.unique(key, return_inverse=True)
        self.iv = iv.reshape(-1, M)
        i, code = np.divmod(distinct, span * span)
        start, stop = np.divmod(code, span)
        W = prefix[i, stop] - prefix[i, start]
        out_sizes = output[i, stop - 1]
        in_sizes = np.where(start == 0, 0.0, output[i, np.maximum(start - 1, 0)])
        self.W, self.comm = W[self.iv], (out_sizes / b)[self.iv]

        ell_in = (-link * (in_sizes / b))[:, None]
        ell_out = (-link * (out_sizes / b))[:, None]
        s, lam, W = speeds[i], rates[i], W[:, None]
        self.tcomp = W / s
        # The allocation composes its branch differently from the
        # evaluation: one comm add, then ell_comm - (lam * W) / s,
        # against (ell_in + -lam * (W / s)) + ell_out.  Both are kept —
        # same operand order, same rounding — because the greedy's
        # decisions and the final metrics must each be bit-identical to
        # their scalar twins.  Where they round alike, they share one
        # log-failure (log_failure(-0.0) is log_failure(0.0)).
        branch_alloc = (ell_in + ell_out) - (lam * W) / s
        branch_eval = (ell_in + (-lam * (W / s))) + ell_out
        self.lf_alloc = _map_distinct(
            _log_failure_map, branch_alloc.ravel()
        ).reshape(branch_alloc.shape)
        self.lf_eval = self.lf_alloc.copy()
        differ = branch_eval != branch_alloc
        self.lf_eval[differ] = _map_distinct(_log_failure_map, branch_eval[differ])
        self.lanes: "tuple | None" = None
        _freeze(self)

    def candidates(
        self, pos: np.ndarray, P: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(valid, ell, wp, wl)`` of every lane, ``(candidates, rows,
        points)`` each, for table rows *pos* under the period bounds
        *P* (see :func:`_probe`).

        Every lane's allocation runs because the Section 7.2 period
        filter ``W_j / s_u <= P`` depends on the bound, and a candidate
        whose allocation leaves an interval unseeded is not valid.  A
        lane depends on nothing else — not on the latency bound, the
        floor or the selection rule — so the last result is kept, keyed
        by *pos* and the bytes of *P*: a method probing the same rows at
        the same periods as the one before it (``heur-l-paper`` after
        ``heur-l``, every round of a latency bisection) only re-selects.
        The single slot bounds the memory of a period bisection, whose
        every round moves *P*.
        """
        key = (pos.tobytes(), P.shape, P.tobytes())
        if self.lanes is not None and self.lanes[0] == key:
            return self.lanes[1]
        k, n_pts = P.shape
        C = self.n_iv.size // self.R
        n_lanes = C * k * n_pts                 # lane = (c * k + i) * n_pts + pt
        valid = np.empty(n_lanes, dtype=bool)
        ell, wp, wl = np.empty((3, n_lanes))
        for start in range(0, n_lanes, _CHUNK):
            chunk = slice(start, min(start + _CHUNK, n_lanes))
            ci, pt = np.divmod(np.arange(chunk.start, chunk.stop), n_pts)
            c, i = np.divmod(ci, k)
            row = pos[i]
            cr = c * self.R + row
            assign, min_speed, valid[chunk] = self._allocate(cr, row, P[i, pt])
            ell[chunk], wp[chunk], wl[chunk] = self._evaluate(
                cr, assign, min_speed, valid[chunk]
            )
        shape = (C, k, n_pts)
        result = tuple(a.reshape(shape) for a in (valid, ell, wp, wl))
        for a in result:
            a.setflags(write=False)
        self.lanes = (key, result)
        return result

    def _allocate(
        self, cr: np.ndarray, row: np.ndarray, P: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`~repro.algorithms.allocation.algo_alloc_het` on every
        lane of a chunk at once.

        Lane ``l`` allocates table row ``cr[l]`` under period bound
        ``P[l]``, in lockstep over the processor-reliability ranks: at
        rank ``t`` every lane considers *its* ``t``-th most reliable
        processor.  A lane whose intervals are all seeded (or whose
        processor hosts nothing) marks the rank as a leftover — exactly
        the scalar ``break`` / ``continue`` bookkeeping, which is
        rank-order-preserving.  Padded intervals start seeded and full
        (``counts = K``), so neither phase touches them.

        Returns ``(assign, min_speed, valid)``: per-processor interval
        assignment (``-1`` = unused), per-interval slowest enrolled
        speed, and the lanes whose every interval got seeded (the
        scalar path returns ``None`` — no mapping — for the others).
        """
        K = self.K
        W, iv = self.W[cr], self.iv[cr]
        speeds, order = self.speeds[row], self.order[row]
        k, M = W.shape
        p = speeds.shape[1]
        lanes = np.arange(k)
        fits = np.empty((k, p, M), dtype=bool)                  # W_j / s_u <= P
        empty = np.arange(M) < self.n_iv[cr, None]
        counts = np.where(empty, 0, K)
        slf = np.zeros((k, M))
        assign = np.full((k, p), -1, dtype=np.int64)
        min_speed = np.full((k, M), math.inf)
        leftover = np.zeros((k, p), dtype=bool)

        # Phase 1 — seed every interval, longest hostable interval first
        # (ties to the smaller interval index: first-occurrence argmax).
        for t in range(p):
            u = order[:, t]
            fits[:, t] = self.tcomp[iv, u[:, None]] <= P[:, None]
            cand = empty & fits[:, t]
            j = np.argmax(np.where(cand, W, -math.inf), axis=1)
            seed = cand[lanes, j]           # the argmax is a candidate iff any
            leftover[:, t] = ~seed
            s = np.flatnonzero(seed)
            if s.size == 0:
                continue
            j, us = j[s], u[s]
            empty[s, j] = False
            counts[s, j] = 1
            slf[s, j] = slf[s, j] + self.lf_alloc[iv[s, j], us]
            assign[s, us] = j
            min_speed[s, j] = speeds[s, us]
        valid = ~empty.any(axis=1)

        # Phase 2 — leftovers (in rank order) go to the interval with the
        # best reliability-improvement ratio among those they can host.
        # score = log1mexp(slf + lf_u) - log1mexp(slf), both members
        # through the same NumPy log1mexp the scalar path pairs up; lo
        # carries log1mexp(slf) along, updated from the accepted lo_new.
        lo = logrel.log1mexp(slf)
        for t in range(p):
            s = np.flatnonzero(leftover[:, t] & valid)
            if s.size == 0:
                continue
            u = order[s, t]
            lf_u = self.lf_alloc[iv[s], u[:, None]]             # (k', M)
            ok = (counts[s] < K) & fits[s, t]
            slf_new = slf[s] + lf_u
            lo_new = logrel.log1mexp(slf_new)
            # The scalar strict '>' skips NaN scores (a certainly-failing
            # stage compares -inf - -inf); argmax would propagate them.
            with np.errstate(invalid="ignore"):
                gain = np.where(ok, lo_new - lo[s], -math.inf)
            gain = np.where(np.isnan(gain), -math.inf, gain)
            j = np.argmax(gain, axis=1)
            acc = np.flatnonzero(gain[np.arange(s.size), j] > 0.0)
            a, ja, ua = s[acc], j[acc], u[acc]
            slf[a, ja] = slf_new[acc, ja]
            lo[a, ja] = lo_new[acc, ja]
            counts[a, ja] += 1
            assign[a, ua] = ja
            min_speed[a, ja] = np.minimum(min_speed[a, ja], speeds[a, ua])
        return assign, min_speed, valid

    def _evaluate(
        self, cr: np.ndarray, assign: np.ndarray, min_speed: np.ndarray,
        valid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``evaluate_mapping`` for every allocated lane of a chunk.

        Branch log-failures accumulate per stage in ascending processor
        order (the mapping stores replicas sorted); the serial
        composition and the latency sum add stage by stage, as the
        scalar path does.  Returns ``(log_reliability, worst_period,
        worst_latency)`` per lane — garbage where not *valid*.
        """
        W, comm, iv = self.W[cr], self.comm[cr], self.iv[cr]
        k, M = W.shape
        slf = np.zeros((k, M))
        for u in range(assign.shape[1]):
            s = np.flatnonzero(assign[:, u] >= 0)
            j = assign[s, u]
            slf[s, j] = slf[s, j] + self.lf_eval[iv[s, j], u]
        live = np.arange(M) < self.n_iv[cr, None]
        done = live & valid[:, None]
        stage_ell = np.zeros((k, M))
        stage_ell[done] = _map_distinct(_parallel_tail_map, slf[done])
        wc = W / min_speed
        log_rel = np.zeros(k)
        wl = np.zeros(k)
        for j in range(M):
            on = live[:, j]
            log_rel = np.where(on, log_rel + stage_ell[:, j], log_rel)
            wl = np.where(on, wl + (wc[:, j] + comm[:, j]), wl)
        wp = np.maximum(
            np.where(live, comm, -math.inf).max(axis=1),
            np.where(live, wc, -math.inf).max(axis=1),
        )
        return log_rel, wp, wl


def _probe(
    tables, pos: np.ndarray, P: np.ndarray, L: np.ndarray, floor: float,
    selection: str = "feasible-best",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Select among the candidates of *tables* (in :data:`_NAMES`
    order) for table rows *pos* at ``(rows, points)`` bounds *P*, *L*
    (see :func:`_select`).  The sweep kernel passes its grid broadcast
    over the rows; the search kernels pass per-lane bisection
    midpoints.  Two tables (``which="both"``) join along the candidate
    axis: each candidate's metrics depend on its own division only."""
    parts = [table.candidates(pos, P) for table in tables]
    valid, ell, wp, wl = (
        column[0] if len(column) == 1 else np.concatenate(column) for column in zip(*parts)
    )
    return _select(valid, ell, wp, wl, P, L, floor, selection)


def heuristic_probe_tables(ensemble, rows: np.ndarray, which: str, allocation: str = "auto"):
    """Split *rows* by table kind and bind each side's probe.

    With ``allocation="auto"`` homogeneous rows take :class:`_HomTable`
    and heterogeneous rows :class:`_HetTable`; ``allocation="het"``
    sends every row to :class:`_HetTable`.  Returns ``[(subset_positions,
    probe), ...]`` where positions index into *rows*; the shared
    machinery behind :func:`batch_heuristic_best` and the
    bisection-search kernels (:mod:`repro.algorithms.batch_search`).
    ``probe(P, L, floor, selection="feasible-best")`` takes ``(rows,
    points)`` bound matrices and returns ``(feasible, ell, wp, wl)`` of
    that shape, for heuristic *which*.  The public entry points validate
    *which*, *selection* and *allocation*.

    Each table holds one heuristic's candidates for every row of its
    kind in the ensemble, is built when a call first asks for that
    heuristic and is kept with the ensemble
    (:meth:`~repro.core.ensemble.Ensemble.derived`): every kernel call
    on the ensemble, whatever its rows, selection rule or floor, reads
    the same tables, and ``which="both"`` joins the two.
    """
    hom = ensemble.homogeneous_rows()
    if allocation == "het":
        hom = np.zeros_like(hom)
    names = _NAMES if which == "both" else (which,)
    parts = []
    for side, table_cls in ((hom, _HomTable), (~hom, _HetTable)):
        idx = np.flatnonzero(side[rows])
        if idx.size:
            covered = np.flatnonzero(side)
            tables = [
                ensemble.derived(
                    (table_cls.__name__, covered.tobytes(), name),
                    functools.partial(table_cls, ensemble, covered, name),
                )
                for name in names
            ]
            pos = np.searchsorted(covered, rows[idx])
            parts.append((idx, functools.partial(_probe, tables, pos)))
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
        Section 7.2 allocation lanes (mixed ensembles split).
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
        ``ValueError``.
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
    if len(rows) == 0 or len(bounds) == 0:
        return out

    floor = from_reliability(min_reliability)
    P_pts = np.array([float(P) for P, _ in bounds])
    L_pts = np.array([float(L) for _, L in bounds])
    for idx, probe in heuristic_probe_tables(ensemble, rows, which, allocation):
        shape = (idx.size, len(bounds))
        feasible, ell, wp, wl = probe(
            np.broadcast_to(P_pts, shape), np.broadcast_to(L_pts, shape), floor, selection
        )
        hit_row, hit_pt = np.nonzero(feasible)
        record_solved(
            out, (idx[hit_row], hit_pt), ell[feasible], wp[feasible], wl[feasible],
            objective,
        )
    return out
