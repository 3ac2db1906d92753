"""Exhaustive mapping enumeration — the oracle for tiny instances.

These enumerators exist to *validate* every other algorithm in the
library (the optimal DPs, Algo-Alloc's Theorem-4 optimality, the exact
Pareto DP, the ILP, and the heuristics' feasibility) on instances small
enough to enumerate.  They are deliberately simple and unoptimized; a
guard refuses instances whose search space would be unreasonably large.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.algorithms.result import SolveResult
from repro.algorithms.search_space import DEFAULT_BUDGET, refusal
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.interval import Interval, partitions_with_m_intervals
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util.validation import check_bound, check_log_floor

__all__ = [
    "enumerate_mappings_hom",
    "enumerate_mappings_het",
    "brute_force_best",
]


def _replica_count_vectors(m: int, p: int, K: int) -> Iterator[tuple[int, ...]]:
    """All ``(q_1 .. q_m)`` with ``1 <= q_j <= K`` and ``sum q_j <= p``."""

    def rec(j: int, left: int) -> Iterator[tuple[int, ...]]:
        if j == m:
            yield ()
            return
        # Must leave at least m - j - 1 processors for later intervals.
        for q in range(1, min(K, left - (m - j - 1)) + 1):
            for tail in rec(j + 1, left - q):
                yield (q, *tail)

    if p >= m:
        yield from rec(0, p)


def enumerate_mappings_hom(
    chain: TaskChain, platform: Platform
) -> Iterator[Mapping]:
    """Every interval mapping of a *homogeneous* instance, up to the
    (irrelevant) identity of the processors within each replica set.

    Replica sets are assigned consecutive processor ids; on a
    homogeneous platform every actual mapping is equivalent to exactly
    one of these.
    """
    if not platform.homogeneous:
        raise ValueError("enumerate_mappings_hom requires a homogeneous platform")
    p, K = platform.p, platform.max_replication
    for partition in partitions_with_m_intervals(chain.n, max_m=p):
        m = len(partition)
        for qs in _replica_count_vectors(m, p, K):
            nxt = 0
            assignment = []
            for iv, q in zip(partition, qs):
                assignment.append((iv, tuple(range(nxt, nxt + q))))
                nxt += q
            yield Mapping(chain, platform, assignment)


def _subsets(pool: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of *pool* with at most *max_size* elements."""
    pool = list(pool)

    def rec(idx: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if chosen and len(chosen) <= max_size:
            yield tuple(chosen)
        if idx == len(pool) or len(chosen) == max_size:
            return
        for i in range(idx, len(pool)):
            chosen.append(pool[i])
            yield from rec(i + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def enumerate_mappings_het(
    chain: TaskChain, platform: Platform
) -> Iterator[Mapping]:
    """Every interval mapping of a (possibly heterogeneous) instance.

    Enumerates, for each chain partition, every assignment of pairwise
    disjoint non-empty processor subsets of size at most ``K`` to the
    intervals.  Exponential in every direction — tiny instances only.
    """
    p, K = platform.p, platform.max_replication
    all_procs = list(range(p))

    def assign(
        partition: list[Interval], j: int, free: list[int], acc: list[tuple[Interval, tuple[int, ...]]]
    ) -> Iterator[Mapping]:
        if j == len(partition):
            yield Mapping(chain, platform, list(acc))
            return
        if len(free) < len(partition) - j:
            return
        for procs in _subsets(free, K):
            acc.append((partition[j], procs))
            rest = [u for u in free if u not in procs]
            yield from assign(partition, j + 1, rest, acc)
            acc.pop()

    for partition in partitions_with_m_intervals(chain.n, max_m=p):
        yield from assign(list(partition), 0, all_procs, [])


def brute_force_best(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    budget: int = DEFAULT_BUDGET,
    objective: str = "reliability",
    min_log_reliability: float = -math.inf,
) -> SolveResult:
    """Exhaustively find the best mapping within the bounds.

    ``objective="reliability"`` (the default) maximizes reliability.
    The converse objectives minimize their criterion over the mappings
    that satisfy the bounds *and* the ``min_log_reliability`` floor:
    ``"period"`` / ``"latency"`` minimize the worst-case period /
    latency (Eqs. (7)-(8)), ``"energy"`` minimizes
    :func:`repro.extensions.energy.mapping_energy` at its default
    power-model parameters.  Ties break toward higher reliability, so
    the oracle is deterministic for the cross-check.

    The bounds, like the converse objectives, use the worst-case period
    and latency: they are real-time guarantees.

    Parameters
    ----------
    budget:
        Guard on the estimated search-space size; :class:`ValueError`
        when exceeded (use the polynomial algorithms instead).
    objective:
        One of :data:`repro.solve.OBJECTIVES`.
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor);
        only meaningful for the converse objectives.
    """
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    min_log_reliability = check_log_floor(min_log_reliability)
    if objective == "energy":
        from repro.extensions.energy import mapping_energy
    elif objective not in ("reliability", "period", "latency"):
        raise ValueError(f"unknown objective {objective!r}")
    n, p, K = chain.n, platform.p, platform.max_replication
    hom = platform.homogeneous
    reason = refusal(n, p, K, hom, budget)
    if reason is not None:
        raise ValueError(reason)
    enum = enumerate_mappings_hom if hom else enumerate_mappings_het
    best = None
    explored = 0
    for mapping in enum(chain, platform):
        explored += 1
        ev = evaluate_mapping(mapping)
        if not ev.meets(
            max_period=max_period,
            max_latency=max_latency,
            min_log_reliability=min_log_reliability,
        ):
            continue
        if objective == "reliability":
            score = -ev.log_reliability
        elif objective == "period":
            score = ev.worst_case_period
        elif objective == "latency":
            score = ev.worst_case_latency
        else:
            score = mapping_energy(mapping)
        # Minimize the score; ties go to the more reliable mapping.
        key = (score, -ev.log_reliability)
        if best is None or key < best[0]:
            best = (key, mapping, ev, score)
    if best is None:
        return SolveResult.infeasible(
            "brute-force", explored=explored, objective=objective
        )
    details = {"explored": explored, "objective": objective}
    if objective == "energy":
        details["energy"] = best[3]
    return SolveResult(
        feasible=True,
        mapping=best[1],
        evaluation=best[2],
        method="brute-force",
        details=details,
    )
