"""Evaluation of a given mapping (Section 4, Equations (1)-(9)).

Given a :class:`~repro.core.mapping.Mapping`, this module computes:

* the **reliability** of the mapping (Eq. (9)) assuming the routing
  operations of Figure 5, so that the RBD is serial-parallel and the
  computation is linear in the number of intervals — carried in the log
  domain (see :mod:`repro.util.logrel`);
* the **expected** and **worst-case computation cost** of each interval
  on its replica set (Eqs. (3) and (4));
* the **expected / worst-case latency** (Eqs. (5) and (7));
* the **expected / worst-case period** (Eqs. (6) and (8)).

All results are gathered in a :class:`MappingEvaluation` record, the
uniform currency used by heuristics, exact solvers, the experiment
harness, and the benchmarks.

Equation-to-code map
--------------------
=============================  ==========================================
Paper                          Here
=============================  ==========================================
Eq. (1)  ``r_{u,i}``           :func:`interval_log_reliability` (1 task)
Eq. (2)  ``r_{u,I}``           :func:`interval_log_reliability`
Eq. (3)  ``ec(I, P_I)``        :func:`expected_cost`
Eq. (4)  ``wc(I, P_I)``        :func:`worst_case_cost`
Eq. (5)  ``EL``                :attr:`MappingEvaluation.expected_latency`
Eq. (6)  ``EP``                :attr:`MappingEvaluation.expected_period`
Eq. (7)  ``WL``                :attr:`MappingEvaluation.worst_case_latency`
Eq. (8)  ``WP``                :attr:`MappingEvaluation.worst_case_period`
Eq. (9)  ``r``                 :func:`mapping_log_reliability`
=============================  ==========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.chain import TaskChain
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util import logrel

__all__ = [
    "comm_log_reliability",
    "interval_log_reliability",
    "stage_log_reliability",
    "mapping_log_reliability",
    "expected_cost",
    "worst_case_cost",
    "MappingEvaluation",
    "evaluate_mapping",
]


def comm_log_reliability(platform: Platform, data_size: float) -> float:
    """Log-reliability of one communication of *data_size* (``rcomm``).

    ``rcomm = exp(-lambda_link * o / b)``; a zero-size communication
    (the ``o_0 = 0`` / ``o_n = 0`` conventions) is perfectly reliable.
    """
    if data_size < 0:
        raise ValueError(f"data size must be >= 0, got {data_size!r}")
    return logrel.from_rate(platform.link_failure_rate, data_size / platform.bandwidth)


def interval_log_reliability(
    chain: TaskChain, platform: Platform, start: int, stop: int, proc: int
) -> float:
    """Log-reliability of interval ``[start, stop)`` on processor *proc*.

    Eq. (2): ``r_{u,I} = exp(-lambda_u * W / s_u)``.  With a single task
    this degenerates to Eq. (1).
    """
    work = chain.work_between(start, stop)
    return logrel.from_rate(
        float(platform.failure_rates[proc]), work / float(platform.speeds[proc])
    )


def stage_log_reliability(
    chain: TaskChain,
    platform: Platform,
    start: int,
    stop: int,
    procs: Sequence[int],
) -> float:
    """Log-reliability of one *stage* of the serial-parallel RBD (Fig. 5).

    One parenthesized factor of Eq. (9): the parallel composition, over
    the replicas ``P_u`` of the interval, of the serial branch

        ``rcomm_in * r_{u,I} * rcomm_out``

    where ``rcomm_in`` / ``rcomm_out`` are the communications from the
    upstream routing operation and to the downstream one.  The first
    interval has ``rcomm_in = 1`` (``o_0 = 0``) and the last has
    ``rcomm_out = 1`` when the chain follows the ``o_n = 0`` convention.
    """
    if not procs:
        raise ValueError("a stage needs at least one replica")
    ell_in = comm_log_reliability(platform, chain.input_of(start))
    ell_out = comm_log_reliability(platform, chain.output_of(stop))
    branches = [
        ell_in + interval_log_reliability(chain, platform, start, stop, u) + ell_out
        for u in procs
    ]
    return logrel.parallel(branches)


def mapping_log_reliability(mapping: Mapping) -> float:
    """Log-reliability of a full mapping — Eq. (9).

    Serial composition of the per-interval stages.  Routing operations
    have reliability 1 and therefore do not appear.
    """
    chain, platform = mapping.chain, mapping.platform
    return sum(
        stage_log_reliability(chain, platform, iv.start, iv.stop, procs)
        for iv, procs in mapping
    )


def expected_cost(
    chain: TaskChain,
    platform: Platform,
    start: int,
    stop: int,
    procs: Sequence[int],
) -> float:
    """Expected computation time of an interval on its replica set — Eq. (3).

    Replicas are ordered from fastest to slowest (ties broken by
    processor index, stable).  The expectation conditions on the interval
    succeeding: term ``u`` covers the event "the ``u-1`` fastest replicas
    fail and replica ``u`` succeeds", in which case the routing operation
    forwards replica ``u``'s result after ``W / s_u`` time units; the
    denominator ``1 - prod_u (1 - r_u)`` renormalizes over success.

    Communication reliabilities do not enter Eq. (3) (they affect the
    system reliability, not the conditional timing); communication
    *times* are added separately in Eqs. (5)-(8).
    """
    if not procs:
        raise ValueError("expected cost needs at least one replica")
    work = chain.work_between(start, stop)
    speeds = np.array([platform.speeds[u] for u in procs], dtype=float)
    rates = np.array([platform.failure_rates[u] for u in procs], dtype=float)
    order = np.argsort(-speeds, kind="stable")  # fastest first
    speeds, rates = speeds[order], rates[order]
    # Per-replica success probability r_u = exp(-lambda_u W / s_u).  The
    # probabilities here are safely representable in plain floats: the
    # result is a *time*, not a reliability, so log-domain care is not
    # needed for the final value; but the denominator is computed with
    # expm1 to stay exact for very reliable replicas.
    ell = -rates * work / speeds
    r = np.exp(ell)
    f = -np.expm1(ell)  # 1 - r, exact for tiny failure probabilities
    prefix_fail = np.concatenate(([1.0], np.cumprod(f)[:-1]))  # prod_{v<u} f_v
    numerator = float(np.sum(r * prefix_fail / speeds))
    # 1 - prod f computed fully in the log domain (log failure taken
    # straight from ell, not from the rounded f): the direct product
    # cancels catastrophically when every replica is *likely* to fail,
    # and even log(f) from f loses ~half the digits when f is near 1.
    log_prod_f = float(np.sum(logrel.log1mexp(ell)))
    denominator = 1.0 if log_prod_f == -math.inf else -math.expm1(log_prod_f)
    if denominator <= 0.0:
        # All replicas fail almost surely; Eq. (3) conditions on success,
        # which is then a measure-zero event.  Fall back to the worst case.
        return work / float(speeds[-1])
    return work * numerator / denominator


def worst_case_cost(
    chain: TaskChain,
    platform: Platform,
    start: int,
    stop: int,
    procs: Sequence[int],
) -> float:
    """Worst-case computation time of an interval — Eq. (4): ``W / s_t``.

    ``s_t`` is the speed of the slowest enrolled replica: the result is
    valid no matter which replicas fail (provided at least one succeeds).
    """
    if not procs:
        raise ValueError("worst-case cost needs at least one replica")
    work = chain.work_between(start, stop)
    slowest = min(float(platform.speeds[u]) for u in procs)
    return work / slowest


@dataclass(frozen=True)
class MappingEvaluation:
    """All objectives of Section 4 for one mapping.

    Attributes
    ----------
    log_reliability:
        ``log r`` with ``r`` from Eq. (9).
    expected_latency, worst_case_latency:
        ``EL`` (Eq. (5)) and ``WL`` (Eq. (7)).
    expected_period, worst_case_period:
        ``EP`` (Eq. (6)) and ``WP`` (Eq. (8)).
    expected_costs, worst_case_costs:
        Per-interval ``ec`` / ``wc`` vectors (diagnostics, reporting).
    """

    log_reliability: float
    expected_latency: float
    worst_case_latency: float
    expected_period: float
    worst_case_period: float
    expected_costs: tuple[float, ...]
    worst_case_costs: tuple[float, ...]

    @property
    def reliability(self) -> float:
        """Plain reliability ``r = exp(log_reliability)``."""
        return logrel.reliability(self.log_reliability)

    @property
    def failure_probability(self) -> float:
        """``1 - r`` computed without cancellation (``-expm1``)."""
        return logrel.failure(self.log_reliability)

    def meets(
        self,
        max_period: float = math.inf,
        max_latency: float = math.inf,
        min_log_reliability: float = -math.inf,
    ) -> bool:
        """Check the real-time and dependability constraints (Section 2.6).

        The bounds are real-time guarantees, so they are checked against
        the worst-case period and latency (Eqs. (7)-(8)); the expected
        values (Eqs. (5)-(6)) are reported but never bound.
        """
        return (
            self.worst_case_period <= max_period
            and self.worst_case_latency <= max_latency
            and self.log_reliability >= min_log_reliability
        )


def evaluate_mapping(mapping: Mapping) -> MappingEvaluation:
    """Compute every objective of Section 4 for *mapping*.

    Runs in time linear in the number of intervals and replicas, as
    guaranteed by the routing-operation construction (Figure 5).
    """
    chain, platform = mapping.chain, mapping.platform
    b = platform.bandwidth

    log_rel = 0.0
    ecs: list[float] = []
    wcs: list[float] = []
    comm_times: list[float] = []
    for iv, procs in mapping:
        log_rel += stage_log_reliability(chain, platform, iv.start, iv.stop, procs)
        ecs.append(expected_cost(chain, platform, iv.start, iv.stop, procs))
        wcs.append(worst_case_cost(chain, platform, iv.start, iv.stop, procs))
        comm_times.append(chain.output_of(iv.stop) / b)

    expected_latency = sum(e + c for e, c in zip(ecs, comm_times))
    worst_latency = sum(w + c for w, c in zip(wcs, comm_times))
    expected_period = max(max(comm_times), max(ecs))
    worst_period = max(max(comm_times), max(wcs))
    return MappingEvaluation(
        log_reliability=log_rel,
        expected_latency=expected_latency,
        worst_case_latency=worst_latency,
        expected_period=expected_period,
        worst_case_period=worst_period,
        expected_costs=tuple(ecs),
        worst_case_costs=tuple(wcs),
    )
