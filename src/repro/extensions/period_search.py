"""Heterogeneous period minimization by binary search over heuristic solves.

Section 5.2's converse algorithm (``dp-period``) minimizes the period
exactly — but only on homogeneous platforms, where the reliability DP
it probes with applies.  On heterogeneous platforms even *bounding*
the period is NP-complete (Section 6), so the facade used to refuse
``Problem(objective="period")`` outright there.  This module closes
that gap heuristically, following the same recipe as the energy
extension (:mod:`repro.extensions.energy`): reuse the Section 7
heuristics as feasibility probes and search the scalar criterion.

A candidate period ``P`` is *admissible* when the Heur-L probe —
:func:`repro.algorithms.heuristic_best` with ``which="heur-l"`` —
finds a mapping within ``(P, max_latency)`` whose reliability meets
the floor.  Admissibility is not guaranteed monotone in ``P`` (the
probe is a heuristic), so the search keeps the *best feasible witness
seen* rather than trusting the bracket: bisection tightens the upper
bracket to each witness's achieved worst-case period (often far below
the probed bound, which is what makes convergence fast) and the final
answer is the witness, never an unprobed bound.

The analytic floor ``max_i w_i / max_u s_u`` — some interval contains
the heaviest task, and no processor beats the fastest — seeds the
lower bracket, mirroring the bounds-grid derivation in
:mod:`repro.solve.grid`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms import heuristic_best
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.platform import Platform
from repro.util.validation import check_bound, check_log_floor

__all__ = ["minimize_period_search"]

#: Stop bisecting when the bracket's relative width drops below this.
DEFAULT_REL_TOL = 1e-4

#: Hard probe budget — each probe is one Heur-L solve.
DEFAULT_MAX_PROBES = 48


def minimize_period_search(
    chain: TaskChain,
    platform: Platform,
    min_log_reliability: float = -math.inf,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    rel_tol: float = DEFAULT_REL_TOL,
    max_probes: int = DEFAULT_MAX_PROBES,
) -> SolveResult:
    """Minimize the worst-case period on any platform (heuristic).

    Parameters
    ----------
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor) —
        a probe's mapping is admissible only at or above it.
    max_period:
        Cap on the answer; infeasible when no admissible mapping fits it.
    max_latency:
        Latency bound honored by every probe solve.
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
    >>> result = minimize_period_search(chain, plat)
    >>> result.feasible
    True
    """
    return _bisect(
        "period", chain, platform, min_log_reliability, max_period, max_latency,
        rel_tol, max_probes,
    )


def _bisect(
    axis: str,
    chain: TaskChain,
    platform: Platform,
    min_log_reliability: float,
    max_period: float,
    max_latency: float,
    rel_tol: float,
    max_probes: int,
) -> SolveResult:
    """The heuristic bisection shared by the period and latency searches.

    *axis* (``"period"`` or ``"latency"``) is the bisected criterion;
    the other bound is honored by every probe.  The method label is
    ``het-<axis>-search`` and the optimum is reported as
    ``details["optimal_<axis>"]``.
    """
    min_log_reliability = check_log_floor(min_log_reliability)
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")

    method = f"het-{axis}-search"
    probes = 0

    def probe(bound: float) -> "tuple[bool, SolveResult]":
        nonlocal probes
        probes += 1
        P, L = (bound, max_latency) if axis == "period" else (max_period, bound)
        res = heuristic_best(
            chain, platform, max_period=P, max_latency=L,
            which="heur-l", selection="feasible-best",
        )
        return res.feasible and res.log_reliability >= min_log_reliability, res

    def achieved(res: SolveResult) -> float:
        assert res.evaluation is not None
        ev = res.evaluation
        return float(ev.worst_case_period if axis == "period" else ev.worst_case_latency)

    # Loosest admissible bound first: if even the cap fails, the
    # heuristic sees no admissible mapping at all.
    ok, best = probe(max_period if axis == "period" else max_latency)
    if not ok:
        return SolveResult.infeasible(
            method,
            probes=probes,
            min_log_reliability=min_log_reliability,
            max_period=max_period,
            max_latency=max_latency,
        )

    # No mapping beats the fastest processor: not on the heaviest task
    # (period), and not on the whole chain, since every task computes
    # somewhere (latency).
    heaviest = np.max(chain.work) if axis == "period" else np.sum(chain.work)
    lo = float(heaviest) / float(np.max(platform.speeds))
    hi = achieved(best)

    while probes < max_probes and hi - lo > rel_tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        ok, res = probe(mid)
        if ok:
            best = res
            # The witness's achieved value can undershoot the probed
            # bound substantially — tighten to it, not to mid.
            hi = min(mid, achieved(res))
        else:
            lo = mid

    assert best.mapping is not None and best.evaluation is not None
    # The loop exits either because the bracket met rel_tol or because
    # the probe budget ran out first; callers reading only the witness
    # could not tell the two apart, so record which one happened.
    converged = hi - lo <= rel_tol * max(hi, 1.0)
    return SolveResult(
        feasible=True,
        mapping=best.mapping,
        evaluation=best.evaluation,
        method=method,
        details={
            f"optimal_{axis}": achieved(best),
            "probes": probes,
            "bracket": (lo, hi),
            "converged": converged,
        },
    )
