"""Shared core of the Section 5 dynamic programs (homogeneous platforms).

Every exact homogeneous engine reads one table per row,
:class:`HomTable`: the row's bounds-independent quantities (prefix
sums, per-boundary communication log-reliability and time, interval
compute times, the total compute time, the replica-count stage tables,
the period-admission list and the candidate periods).  Algorithms 1
and 2 (:func:`hom_reliability_dp`), the frontier DP of
:mod:`repro.algorithms.pareto_dp`, both probes of
:func:`~repro.algorithms.dp_period.minimize_period` and the lane
engines of :mod:`repro.algorithms.batch_dp` (which stack the tables of
many rows) all build it, so a row solved at many bounds pays for its
quantities once.  Each engine's witness comes out of one parent walk,
:func:`walk`, as ``(j, i, q)`` pieces — interval ``[j, i)`` on ``q``
replicas — and :meth:`HomTable.mapping` turns the pieces into a
:class:`~repro.core.mapping.Mapping`.

Algorithm 1 (Section 5.1) is, in the paper's own words, "a simplified
version of Algorithm 2" — the period bound is simply absent.  Both
public entry points therefore delegate to :func:`hom_reliability_dp`,
which runs the recurrence

    ``F(i, k) = max over j < i, 1 <= q <= min(K, k) of
      F(j, k - q) * (1 - (1 - rcomm_j * prod_{j < l <= i} r_l * rcomm_i)^q)``

in the log domain over the intervals the period bound admits:
``max(o_j / b, W(j+1..i) / s, o_i / b) <= P`` (Algorithm 2 line 13).
States are (number of tasks mapped, processors used); parent pointers
reconstruct the optimal mapping.

Note the index correction relative to the preprint's Algorithm 1 line 10
(``rcomm,j-1`` / ``prod_{j<=l<=i}``): the interval appended after a prefix
of ``j`` mapped tasks is ``tau_{j+1}..tau_i``, i.e. the consistent form
printed in Algorithm 2.  The printed indices would charge task
``tau_j``, already in the prefix, and the communication entering it a
second time.

The DP is vectorized over the processor-count axis: the inner
maximization is a shifted NumPy slice update rather than a Python loop
over ``k``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.chain import TaskChain
from repro.core.evaluation import comm_log_reliability
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util import logrel

__all__ = ["HomTable", "hom_reliability_dp", "require_homogeneous", "HomDPResult", "walk"]


def require_homogeneous(platform: Platform, algorithm: str) -> None:
    """Raise if *platform* is heterogeneous.

    The Section 5 algorithms are only optimal (Theorems 1 and 2) on fully
    homogeneous platforms; running them elsewhere would silently produce
    wrong answers, so we refuse (Section 6 proves the heterogeneous
    problem NP-complete).
    """
    if not platform.homogeneous:
        raise ValueError(
            f"{algorithm} requires a fully homogeneous platform "
            "(same speed and failure rate on every processor); "
            "use the heuristics of repro.algorithms.heuristics instead"
        )


class HomTable:
    """The bounds-independent quantities of one homogeneous row.

    ``prefix[i]`` is the work of the first ``i`` tasks; ``ell_comm[j]``
    and ``comm_time[j]`` are the log-reliability and the time of the
    communication crossing boundary ``j`` (before task ``j``; ``j = n``
    is the boundary after the last task).  For the candidate interval
    ``[j, i)``, ``wtime[i][j]`` is its compute time and
    ``stage[i][j][q - 1]`` the log-reliability of ``q`` replicas of it,
    its incoming and outgoing communications included.  A stage table
    is filled by :meth:`stage_of` the first time a DP admits its
    interval (one ``parallel_k_many`` call, kept as Python floats), so
    a row pays for each at most once however many bounds it is solved
    at, and a tight-period solve only for the intervals it admits.
    """

    __slots__ = (
        "chain", "platform", "n", "p", "kmax", "s", "lam", "prefix",
        "total_compute", "ell_comm", "comm_time", "wtime", "stage",
    )

    def __init__(self, chain: TaskChain, platform: Platform) -> None:
        n, p = chain.n, platform.p
        s = float(platform.speeds[0])
        b = platform.bandwidth
        prefix = np.concatenate(([0.0], np.cumsum(chain.work)))
        ell_comm = [comm_log_reliability(platform, chain.input_of(j)) for j in range(n)]
        ell_comm.append(comm_log_reliability(platform, chain.output_of(n)))
        comm_time = [chain.input_of(j) / b for j in range(n)]
        comm_time.append(chain.output_of(n) / b)

        self.chain, self.platform = chain, platform
        self.n, self.p, self.kmax = n, p, min(platform.max_replication, p)
        self.s, self.lam = s, float(platform.failure_rates[0])
        self.prefix, self.total_compute = prefix, float(prefix[-1]) / s
        self.ell_comm, self.comm_time = ell_comm, comm_time
        self.wtime = [
            [float(prefix[i] - prefix[j]) / s for j in range(i)] for i in range(n + 1)
        ]
        self.stage: list[list[list[float] | None]] = [[None] * i for i in range(n + 1)]

    def stage_of(self, j: int, i: int) -> list:
        """The replica-count stage table of interval ``[j, i)``."""
        stage = self.stage[i][j]
        if stage is None:
            work = float(self.prefix[i] - self.prefix[j])
            ell_branch = self.ell_comm[j] - self.lam * work / self.s + self.ell_comm[i]
            stage = self.stage[i][j] = logrel.parallel_k_many(
                ell_branch, np.arange(1, self.kmax + 1)
            ).tolist()
        return stage

    def admitted(self, max_period: float) -> tuple:
        """The intervals ``(j, i)`` whose compute time and both
        communications fit *max_period*, in DP order (``i``, then ``j``,
        increasing)."""
        comm_time, wtime = self.comm_time, self.wtime
        return tuple(
            (j, i)
            for i in range(1, self.n + 1)
            if not comm_time[i] > max_period
            for j in range(i)
            if not (wtime[i][j] > max_period or comm_time[j] > max_period)
        )

    def candidate_periods(self) -> np.ndarray:
        """Every positive interval compute time and communication time,
        sorted increasing: the values the period of a mapping can take."""
        values = {w for row in self.wtime for w in row}
        values.update(self.comm_time)
        # A period of 0 is meaningless (every interval computes for > 0
        # time); drop non-positive values such as the o_0 = 0 boundary.
        return np.array(sorted(v for v in values if v > 0.0))

    def mapping(self, pieces: list) -> Mapping:
        """The mapping of ``(j, i, q)`` pieces in chain order: interval
        ``[j, i)`` on the next ``q`` processors (0, 1, 2... — processor
        identity is irrelevant on a homogeneous platform)."""
        assignment = []
        nxt = 0
        for j, i, q in pieces:
            assignment.append((Interval(j, i), tuple(range(nxt, nxt + q))))
            nxt += q
        return Mapping(self.chain, self.platform, assignment)


def walk(n: int, state, parent) -> list:
    """The witness of a DP as ``(j, i, q)`` pieces in chain order.

    Walks back from *state*, a final state of row *n*:
    ``parent(i, state)`` is ``(j, q, state')`` — the last interval
    ``[j, i)`` of the prefix, its replica count and the state of row
    ``j`` it extended.
    """
    pieces = []
    i = n
    while i > 0:
        j, q, state = parent(i, state)
        pieces.append((j, i, q))
        i = j
    pieces.reverse()
    return pieces


def table_witness(F: np.ndarray, parent_j: np.ndarray, parent_q: np.ndarray) -> list:
    """:func:`walk` from the best final state of an ``F`` table (the
    lowest processor count on ties) through its parent arrays."""
    def parent(i: int, k: int):
        j, q = int(parent_j[i, k]), int(parent_q[i, k])
        return j, q, k - q

    n = F.shape[0] - 1
    return walk(n, int(np.argmax(F[n, 1:])) + 1, parent)


class HomDPResult(NamedTuple):
    """Raw outcome of the homogeneous reliability DP.

    Attributes
    ----------
    log_reliability:
        Best achievable log-reliability (``-inf`` if no feasible mapping,
        which can only happen under a period bound).
    pieces:
        The optimal mapping's ``(j, i, q)`` pieces (see
        :meth:`HomTable.mapping`), or ``None``.
    table:
        The full ``F`` table (``(n+1) x (p+1)``), exposed for tests.
    """

    log_reliability: float
    pieces: "list | None"
    table: np.ndarray


def hom_reliability_dp(table: HomTable, max_period: float = math.inf) -> HomDPResult:
    """Run the Algorithm 1/2 recurrence on *table* and walk back the
    best mapping.

    ``max_period`` is the period bound ``P`` of Algorithm 2; ``inf``
    recovers Algorithm 1 exactly.  The caller checks that the platform
    is homogeneous.

    Complexity: ``O(n^2 * p * K)`` time, ``O(n * p)`` space (plus the
    ``O(n^2)`` interval tables), matching Theorems 1 and 2 (``K <= p``).
    """
    n, p, kmax = table.n, table.p, table.kmax
    F = np.full((n + 1, p + 1), -math.inf)
    F[0, 0] = 0.0
    parent_j = np.full((n + 1, p + 1), -1, dtype=np.int64)
    parent_q = np.full((n + 1, p + 1), -1, dtype=np.int64)

    for j, i in table.admitted(max_period):
        stage = table.stage_of(j, i)
        row_j, row_i = F[j], F[i]
        for q in range(1, kmax + 1):
            cand = row_j[: p + 1 - q] + stage[q - 1]
            dest = row_i[q:]
            better = cand > dest
            if np.any(better):
                dest[better] = cand[better]
                idx = np.nonzero(better)[0] + q
                parent_j[i, idx] = j
                parent_q[i, idx] = q

    best = float(F[n, 1:].max())
    if not np.isfinite(best):
        return HomDPResult(-math.inf, None, F)
    return HomDPResult(best, table_witness(F, parent_j, parent_q), F)
