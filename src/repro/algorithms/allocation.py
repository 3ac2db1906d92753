"""Processor allocation for a fixed interval partition (Sections 5.5, 7.2).

Once the chain has been divided into intervals, it remains to decide
which processors replicate which interval.

* On a **homogeneous** platform the partition already fixes the period
  and latency, so allocation only impacts reliability.  The greedy
  **Algo-Alloc** (Section 5.5) assigns one processor per interval, then
  repeatedly gives the next processor to the interval whose reliability
  improves by the largest *ratio*; Theorem 4 proves this optimal (the
  improvement ratio ``R_{k,j}`` decreases with ``k`` by convexity, so the
  greedy exchange argument goes through).

* On a **heterogeneous** platform (Section 7.2), processors are first
  sorted by ``lambda_u / s_u`` (most reliable first — the quantity that
  makes an interval on ``P_u`` fail is ``lambda_u W / s_u``); each
  processor in turn seeds the longest still-empty interval it can host
  within the period bound ``P`` (``W_j / s_u <= P``), and remaining
  processors go to the interval with the best reliability-improvement
  ratio among those they can host.  Allocation constraints ("this task
  needs a hardware driver only present on those processors") are
  supported through the *allowed* predicate, as discussed at the end of
  Section 7.2.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.algorithms._hom_dp import require_homogeneous
from repro.core.chain import TaskChain
from repro.core.evaluation import comm_log_reliability, interval_log_reliability
from repro.core.interval import Interval, validate_partition
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util import logrel

__all__ = ["algo_alloc", "algo_alloc_het"]


def _branch_logrel(
    chain: TaskChain, platform: Platform, iv: Interval, proc: int
) -> float:
    """Log-reliability of one replica branch of the Fig. 5 RBD:
    incoming comm x interval execution x outgoing comm."""
    return (
        comm_log_reliability(platform, chain.input_of(iv.start))
        + interval_log_reliability(chain, platform, iv.start, iv.stop, proc)
        + comm_log_reliability(platform, chain.output_of(iv.stop))
    )


def _log_gain(log_fail: float, log_fail_new: float) -> float:
    """Log of the reliability-improvement ratio when a stage's log
    failure probability drops from *log_fail* to *log_fail_new*.

    Python-float subtraction: a certainly-failing stage scores
    ``-inf - -inf = NaN`` (never the best gain) without NumPy's
    invalid-value warning.
    """
    pair = logrel.log1mexp(np.array([log_fail, log_fail_new]))
    return float(pair[1]) - float(pair[0])


def algo_alloc(
    chain: TaskChain,
    platform: Platform,
    partition: Sequence[Interval],
) -> Mapping:
    """Optimal processor allocation on a homogeneous platform (Algo-Alloc).

    Implements Section 5.5 exactly:

    1. allocate one processor to each interval;
    2. while an unallocated processor remains and some interval has
       fewer than ``K`` replicas, give a processor to the interval with
       the maximum ratio (reliability with one more replica) /
       (current reliability).

    Theorem 4 guarantees the result maximizes Eq. (9) over all
    allocations for this partition.  Processor identities are
    interchangeable on a homogeneous platform; replicas are assigned
    ids ``0, 1, 2, ...`` in interval order.

    Raises
    ------
    ValueError
        If the platform is heterogeneous or has fewer processors than
        intervals.
    """
    require_homogeneous(platform, "Algo-Alloc")
    partition = list(partition)
    validate_partition(chain.n, partition)
    m, p, K = len(partition), platform.p, platform.max_replication
    if p < m:
        raise ValueError(f"{m} intervals need at least {m} processors, platform has {p}")

    counts = [1] * m
    remaining = p - m

    # Greedy by ratio R_{k+1,j} = (1 - a_j^{k+1}) / (1 - a_j^k): in the
    # log domain the score is ell(k+1) - ell(k) where
    # ell(k) = log(1 - a_j^k) and a_j is the branch failure probability.
    log_fail = [
        logrel.log_failure(_branch_logrel(chain, platform, iv, 0)) for iv in partition
    ]  # log a_j; proc index irrelevant (homogeneous)

    def score(j: int, k: int) -> float:
        """log R_{k+1,j} — improvement from replica k to k+1 (>= 0)."""
        return _log_gain(k * log_fail[j], (k + 1) * log_fail[j])

    heap: list[tuple[float, int]] = []
    for j in range(m):
        if counts[j] < K:
            heapq.heappush(heap, (-score(j, counts[j]), j))
    while remaining > 0 and heap:
        _, j = heapq.heappop(heap)
        counts[j] += 1
        remaining -= 1
        if counts[j] < K:
            heapq.heappush(heap, (-score(j, counts[j]), j))

    assignment = []
    nxt = 0
    for iv, q in zip(partition, counts):
        assignment.append((iv, tuple(range(nxt, nxt + q))))
        nxt += q
    return Mapping(chain, platform, assignment)


class _Seeding(NamedTuple):
    """Phase 1 of a Section 7.2 allocation: every interval seeded."""

    #: Work of each interval.
    works: list
    #: ``branch(u, j)``: log-reliability of processor *u* replicating
    #: interval *j* (incoming comm x execution x outgoing comm).
    branch: Callable[[int, int], float]
    #: ``fits(u, j)``: *u* may replicate *j* (period bound, *allowed*).
    fits: Callable[[int, int], bool]
    #: Replica processors per interval (one each after phase 1).
    replicas: list
    #: Log of each stage's failure probability.
    stage_log_fail: list
    #: ``(processor, interval)`` seeds in the order they were placed.
    seeds: list
    #: Unused processors, most reliable first.
    leftovers: list


def _seed_het(
    chain: TaskChain,
    platform: Platform,
    partition: "list[Interval]",
    max_period: float,
    allowed: "Callable[[int, int], bool] | None",
) -> "_Seeding | None":
    """Phase 1 of the Section 7.2 allocation, shared by
    :func:`algo_alloc_het` and
    :func:`repro.extensions.energy.energy_aware_alloc_het`.

    Processors go most reliable first (increasing ``lambda_u / s_u``,
    ties by index for determinism); each seeds the longest still-empty
    interval it can host.  Returns ``None`` when some interval receives
    no processor.
    """
    validate_partition(chain.n, partition)
    m, p = len(partition), platform.p
    speeds, rates = platform.speeds, platform.failure_rates
    if allowed is None:
        allowed = lambda _u, _j: True  # noqa: E731 - trivial default

    works = [chain.work_between(iv.start, iv.stop) for iv in partition]
    ell_comm = [
        comm_log_reliability(platform, chain.input_of(iv.start))
        + comm_log_reliability(platform, chain.output_of(iv.stop))
        for iv in partition
    ]

    def branch(u: int, j: int) -> float:
        return ell_comm[j] - float(rates[u]) * works[j] / float(speeds[u])

    def fits(u: int, j: int) -> bool:
        return works[j] / float(speeds[u]) <= max_period and allowed(u, j)

    order = sorted(range(p), key=lambda u: (float(rates[u]) / float(speeds[u]), u))

    replicas: list[list[int]] = [[] for _ in range(m)]
    # log of the stage *failure* probability: sum over current replicas
    # of log(1 - r_branch); starts empty (failure probability 1).
    stage_log_fail = [0.0] * m
    seeds: list[tuple[int, int]] = []
    empty = set(range(m))
    leftovers: list[int] = []

    it = iter(order)
    for u in it:
        if not empty:
            leftovers.append(u)
            break
        candidates = [j for j in empty if fits(u, j)]
        if not candidates:
            leftovers.append(u)
            continue
        j = max(candidates, key=lambda jj: (works[jj], -jj))
        replicas[j].append(u)
        stage_log_fail[j] += logrel.log_failure(branch(u, j))
        seeds.append((u, j))
        empty.discard(j)
    leftovers.extend(it)
    if empty:
        return None
    return _Seeding(works, branch, fits, replicas, stage_log_fail, seeds, leftovers)


def algo_alloc_het(
    chain: TaskChain,
    platform: Platform,
    partition: Sequence[Interval],
    max_period: float = math.inf,
    allowed: Callable[[int, int], bool] | None = None,
) -> Mapping | None:
    """Heterogeneous allocation with a period bound (Section 7.2).

    Parameters
    ----------
    chain, platform, partition:
        The instance and the fixed interval division.
    max_period:
        Bound ``P``: a processor ``P_u`` may replicate interval ``I_j``
        only if ``W_j / s_u <= P`` (its worst-case contribution to the
        period).  Communication times are *not* checked here — the
        paper's allocation "considers only the period bound" on
        computations; callers filter complete mappings afterwards.
    allowed:
        Optional predicate ``allowed(proc, interval_index)`` encoding
        hardware-driver constraints; checked before any allocation.

    Returns
    -------
    Mapping or None
        ``None`` when some interval cannot receive any processor (the
        division is infeasible under these constraints).
    """
    partition = list(partition)
    seeding = _seed_het(chain, platform, partition, max_period, allowed)
    if seeding is None:
        return None
    branch, fits = seeding.branch, seeding.fits
    replicas, stage_log_fail = seeding.replicas, seeding.stage_log_fail
    K = platform.max_replication

    # Phase 2 — remaining processors by best reliability-improvement ratio.
    for u in seeding.leftovers:
        best_j, best_gain = -1, 0.0
        for j in range(len(partition)):
            if len(replicas[j]) >= K or not fits(u, j):
                continue
            lf_new = stage_log_fail[j] + logrel.log_failure(branch(u, j))
            gain = _log_gain(stage_log_fail[j], lf_new)
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_j >= 0:
            replicas[best_j].append(u)
            stage_log_fail[best_j] += logrel.log_failure(branch(u, best_j))

    assignment = [(iv, tuple(sorted(r))) for iv, r in zip(partition, replicas)]
    return Mapping(chain, platform, assignment)
