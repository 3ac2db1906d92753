"""Baseline mappings the paper argues against (Section 1).

"Interval mappings are more general than one-to-one mappings, which
establish a unique correspondence between tasks and processors; they
allow communication overheads to be reduced, not to mention the many
situations where there are more tasks than processors, and where
interval mappings are mandatory."

This module implements those baselines so the claim is measurable:

* :func:`one_to_one_best` — every task is its own interval (the
  finest partition); replicas are then allocated optimally
  (Algo-Alloc on homogeneous platforms, the Section 7.2 variant
  otherwise).  Requires ``n <= p``.
* :func:`single_interval_best` — the coarsest partition: the whole
  chain as one interval (no pipelining at all, minimal communication).

`benchmarks/bench_baseline_mappings.py` quantifies when interval
mappings beat both extremes.
"""

from __future__ import annotations

import math

from repro.algorithms.allocation import algo_alloc, algo_alloc_het
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.interval import Interval, partition_from_cuts
from repro.core.mapping import Mapping
from repro.core.platform import Platform

__all__ = ["one_to_one_best", "single_interval_best"]


def _allocate(
    chain: TaskChain,
    platform: Platform,
    partition,
    max_period: float,
) -> Mapping | None:
    if platform.homogeneous:
        try:
            return algo_alloc(chain, platform, partition)
        except ValueError:
            return None
    return algo_alloc_het(chain, platform, partition, max_period=max_period)


def one_to_one_best(  # repro-lint: disable=API001 §1 baseline
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Best *one-to-one* mapping: one task per interval, replicated.

    Infeasible whenever ``n > p`` — the situation the paper calls out
    as making interval mappings mandatory.
    """
    if chain.n > platform.p:
        return SolveResult.infeasible(
            "one-to-one", reason=f"{chain.n} tasks > {platform.p} processors"
        )
    partition = partition_from_cuts(chain.n, range(1, chain.n))
    mapping = _allocate(chain, platform, partition, max_period)
    if mapping is None:
        return SolveResult.infeasible("one-to-one")
    ev = evaluate_mapping(mapping)
    if not ev.meets(max_period=max_period, max_latency=max_latency):
        return SolveResult.infeasible("one-to-one", bound_violated=True)
    return SolveResult(feasible=True, mapping=mapping, evaluation=ev, method="one-to-one")


def single_interval_best(  # repro-lint: disable=API001 §1 baseline
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Best *monolithic* mapping: the whole chain as one interval."""
    partition = [Interval(0, chain.n)]
    mapping = _allocate(chain, platform, partition, max_period)
    if mapping is None:
        return SolveResult.infeasible("single-interval")
    ev = evaluate_mapping(mapping)
    if not ev.meets(max_period=max_period, max_latency=max_latency):
        return SolveResult.infeasible("single-interval", bound_violated=True)
    return SolveResult(
        feasible=True, mapping=mapping, evaluation=ev, method="single-interval"
    )
