"""Heterogeneous latency minimization by binary search over heuristic solves.

The converse-latency algorithm (``dp-latency``) is exact but
homogeneous-only — its Pareto DP relies on the partition-invariant
compute term of Eq. (5)/(7).  On heterogeneous platforms the
bi-criteria (reliability, latency) problem is NP-complete (Theorem 3),
so this module completes the ``(objective x platform-kind)`` coverage
matrix the same way :mod:`repro.extensions.period_search` does for the
period: reuse the Section 7 heuristics as feasibility probes and
bisect the scalar criterion.

A candidate latency ``L`` is *admissible* when the Heur-L probe —
:func:`repro.algorithms.heuristic_best` with ``which="heur-l"`` —
finds a mapping within ``(max_period, L)`` whose reliability meets the
floor.  As in the period search, admissibility is heuristic rather
than monotone, so the search keeps the best feasible witness seen:
bisection tightens the upper bracket to each witness's *achieved*
worst-case latency and the answer is always a probed witness.

The analytic floor ``sum_i w_i / max_u s_u`` seeds the lower bracket —
every task's work appears in some interval's compute term, and no
replica beats the fastest processor — mirroring the latency leg of the
bounds-grid derivation in :mod:`repro.solve.grid`.
"""

from __future__ import annotations

import math

from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.platform import Platform
from repro.extensions.period_search import DEFAULT_MAX_PROBES, DEFAULT_REL_TOL, _bisect

__all__ = ["minimize_latency_search"]


def minimize_latency_search(
    chain: TaskChain,
    platform: Platform,
    min_log_reliability: float = -math.inf,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    rel_tol: float = DEFAULT_REL_TOL,
    max_probes: int = DEFAULT_MAX_PROBES,
) -> SolveResult:
    """Minimize the worst-case latency on any platform (heuristic).

    Parameters
    ----------
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor) —
        a probe's mapping is admissible only at or above it.
    max_period:
        Period bound honored by every probe solve.
    max_latency:
        Cap on the answer; infeasible when no admissible mapping fits it.
    rel_tol:
        Relative bracket width at which the bisection stops.
    max_probes:
        Probe budget (each probe is one Heur-L solve).  When the budget
        runs out before the bracket meets ``rel_tol``, the answer is
        still the best witness seen but ``details["converged"]`` is
        ``False``.

    Examples
    --------
    >>> chain = TaskChain([6.0, 6.0], [1.0, 0.0])
    >>> plat = Platform(speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3,
    ...                 max_replication=2)
    >>> result = minimize_latency_search(chain, plat)
    >>> result.feasible
    True
    """
    return _bisect(
        "latency", chain, platform, min_log_reliability, max_period, max_latency,
        rel_tol, max_probes,
    )
