"""Algorithm 1 — optimal reliability on homogeneous platforms (Section 5.1).

Theorem 1: the dynamic program computes, in time ``O(n^2 p^2)``, the
mapping maximizing the reliability of a chain of ``n`` tasks on ``p``
fully homogeneous processors with at most ``K`` replicas per interval.
"""

from __future__ import annotations

from repro.algorithms._hom_dp import HomTable, hom_reliability_dp, require_homogeneous
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.platform import Platform

__all__ = ["optimize_reliability"]


def optimize_reliability(  # repro-lint: disable=API001 Algorithm 1, §5.1
    chain: TaskChain, platform: Platform
) -> SolveResult:
    """Maximize mapping reliability on a homogeneous platform (Algorithm 1).

    Always feasible: mapping the whole chain as one interval on a single
    processor is a valid baseline, and replication only improves on it.

    Parameters
    ----------
    chain:
        The application chain.
    platform:
        A fully homogeneous platform (raises :class:`ValueError`
        otherwise — Theorem 5 shows the heterogeneous problem is
        NP-complete, so no polynomial algorithm is offered there).

    Returns
    -------
    SolveResult
        With the optimal mapping and its full evaluation.

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([5.0, 5.0], [1.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-4,
    ...                                      max_replication=2)
    >>> res = optimize_reliability(chain, plat)
    >>> res.feasible
    True
    >>> res.mapping.processors_used
    4
    """
    require_homogeneous(platform, "the homogeneous reliability DP")
    table = HomTable(chain, platform)
    dp = hom_reliability_dp(table)
    mapping = table.mapping(dp.pieces)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="algorithm-1",
        details={"dp_log_reliability": dp.log_reliability},
    )
