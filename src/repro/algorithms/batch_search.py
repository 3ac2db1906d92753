"""Batched bisection-search kernels: het-period-search / het-latency-search.

The extension searches (:mod:`repro.extensions.period_search`,
:mod:`repro.extensions.latency_search`) bisect a scalar criterion with
one Heur-L solve per probe.  Their batched twins run every probe round
as a single vectorized Heur-L call over *all* not-yet-converged lanes
— one lane per (row, sweep point), each with its own bracket — on the
probe tables :func:`~repro.algorithms.batch.heuristic_probe_tables`
exposes (homogeneous rows reuse the bounds-independent candidate
table; heterogeneous rows re-run the lockstep Section 7.2 allocation
per round).  Because a lane's ``(lo, hi)`` trajectory depends only on
its own probe outcomes, lockstep rounds replicate each scalar search's
probe sequence — and its probe *count* and ``converged`` flag —
exactly; the bit-identity contract of :mod:`repro.algorithms.batch`
carries over unchanged.

The kernels return a :class:`~repro.algorithms.batch.UnitResults`
whose per-row ``infos`` carry ``probes`` summed over the row's sweep
points — infeasible points count their single refused probe, as the
scalar details do — and ``converged`` ANDed over feasible points,
matching what the harness accumulates from per-row details.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.batch import (
    BatchUnsupported,
    UnitResults,
    _failure_map,
    _pyfloat,
    _resolve_rows,
    check_bounds,
    floor_log_reliability,
    heuristic_probe_tables,
)

__all__ = ["batch_bisection_search", "search_solve_batch"]


def batch_bisection_search(
    ensemble,
    bounds: Sequence[tuple[float, float]],
    *,
    rows: "Sequence[int] | None" = None,
    criterion: str = "period",
    min_reliability: float = 0.0,
) -> UnitResults:
    """Run a bisection search on every ensemble row at every bound.

    The batched twin of calling ``minimize_period_search`` /
    ``minimize_latency_search`` per row per sweep point — bit-identical
    to that loop, one lockstep kernel instead.  ``criterion`` selects
    which coordinate is bisected; the other coordinate stays at the
    sweep point's bound, exactly as the scalar probe passes it.
    """
    # The tolerances live next to the scalar search; imported at call
    # time so this module stays importable from repro.algorithms
    # without an algorithms <-> extensions import cycle.
    from repro.extensions.period_search import DEFAULT_MAX_PROBES, DEFAULT_REL_TOL

    if criterion not in ("period", "latency"):
        raise ValueError(f"unknown search criterion {criterion!r}")
    rows = _resolve_rows(ensemble, rows)
    n_pts = len(bounds)
    r = len(rows)
    out = UnitResults.empty(r, n_pts, criterion)
    if r == 0 or n_pts == 0:
        return out
    check_bounds(bounds)

    floor = floor_log_reliability(min_reliability)
    work = np.asarray(ensemble.work[rows], dtype=float)
    speeds = np.asarray(ensemble.speeds[rows], dtype=float)
    # The scalar lower brackets, per row: max_i w_i / max_u s_u for the
    # period, sum_i w_i / max_u s_u for the latency (per-row Python
    # reductions — the scalar path's float(np.sum(...)) is sequential
    # over one row, not an axis reduction).
    if criterion == "period":
        lo_row = np.array(
            [float(np.max(work[k])) / float(np.max(speeds[k])) for k in range(r)]
        )
    else:
        lo_row = np.array(
            [float(np.sum(work[k])) / float(np.max(speeds[k])) for k in range(r)]
        )

    # Lane layout: lane = ri * n_pts + pt.
    P_lane = np.tile(np.array([float(P) for P, _ in bounds]), r)
    L_lane = np.tile(np.array([float(L) for _, L in bounds]), r)
    lo_lane = np.repeat(lo_row, n_pts)
    probes_lane = np.zeros(r * n_pts, dtype=np.int64)
    ok_lane = np.zeros(r * n_pts, dtype=bool)
    conv_lane = np.zeros(r * n_pts, dtype=bool)
    ell_lane = np.full(r * n_pts, -math.inf)
    wp_lane = np.full(r * n_pts, math.inf)
    wl_lane = np.full(r * n_pts, math.inf)

    for idx, table in heuristic_probe_tables(ensemble, np.repeat(rows, n_pts), "heur-l"):
        P_p, L_p = P_lane[idx], L_lane[idx]
        probes = np.ones(idx.size, dtype=np.int64)
        # Loosest probe first, at the sweep point's own bounds.  The
        # scalar probe runs without the floor and checks it after —
        # same thing as masking here, since the probe maximizes ell.
        feas, ell, wp, wl = table.probe(P_p, L_p, -math.inf)
        ok = feas & (ell >= floor)
        # The best witness so far: its log-reliability, period, latency.
        b_ell = np.where(ok, ell, -math.inf)
        b_wp = np.where(ok, wp, math.inf)
        b_wl = np.where(ok, wl, math.inf)
        lo = lo_lane[idx].copy()
        hi = np.where(ok, wp if criterion == "period" else wl, 0.0)

        active = ok & (probes < DEFAULT_MAX_PROBES) & (
            hi - lo > DEFAULT_REL_TOL * np.maximum(hi, 1.0)
        )
        while active.any():
            mid = 0.5 * (lo + hi)
            probes = np.where(active, probes + 1, probes)
            if criterion == "period":
                feas_m, ell_m, wp_m, wl_m = table.probe(
                    np.where(active, mid, P_p), L_p, -math.inf
                )
            else:
                feas_m, ell_m, wp_m, wl_m = table.probe(
                    P_p, np.where(active, mid, L_p), -math.inf
                )
            ok_m = feas_m & (ell_m >= floor)
            acc = active & ok_m
            b_ell = np.where(acc, ell_m, b_ell)
            b_wp = np.where(acc, wp_m, b_wp)
            b_wl = np.where(acc, wl_m, b_wl)
            wit_m = wp_m if criterion == "period" else wl_m
            hi = np.where(acc, np.minimum(mid, wit_m), hi)
            lo = np.where(active & ~ok_m, mid, lo)
            active = ok & (probes < DEFAULT_MAX_PROBES) & (
                hi - lo > DEFAULT_REL_TOL * np.maximum(hi, 1.0)
            )

        conv = (hi - lo) <= DEFAULT_REL_TOL * np.maximum(hi, 1.0)
        probes_lane[idx] = probes
        ok_lane[idx] = ok
        conv_lane[idx] = conv
        ell_lane[idx] = b_ell
        wp_lane[idx] = b_wp
        wl_lane[idx] = b_wl

    solved = ok_lane.reshape(r, n_pts)
    out.solved[:] = solved
    # The probe table's ell replicates evaluate_mapping's
    # log-reliability bit for bit, so failure = -expm1(ell) matches the
    # scalar result's failure_probability.
    out.failure[solved] = _pyfloat(_failure_map(ell_lane[ok_lane]))
    out.period[solved] = wp_lane[ok_lane]
    out.latency[solved] = wl_lane[ok_lane]
    # The searched criterion is the objective (both fill with inf).
    out.values[:] = out.period if criterion == "period" else out.latency
    probes2 = probes_lane.reshape(r, n_pts)
    conv2 = conv_lane.reshape(r, n_pts)
    for ri in range(r):
        info = {"probes": int(probes2[ri].sum())}
        if solved[ri].any():
            info["converged"] = bool(conv2[ri][solved[ri]].all())
        out.infos[ri] = info
    return out


def search_solve_batch(criterion: str):
    """Package :func:`batch_bisection_search` as a ``solve_batch`` entry
    for ``het-period-search`` (``criterion="period"``) or
    ``het-latency-search`` (``criterion="latency"``)."""
    if criterion not in ("period", "latency"):
        raise ValueError(f"unknown search criterion {criterion!r}")

    def solve_batch(
        ensemble,
        bounds,
        *,
        rows=None,
        objective=None,
        min_reliability=0.0,
    ):
        if objective is not None and objective != criterion:
            raise BatchUnsupported(
                f"the batched {criterion}-search kernel covers objective "
                f"{criterion!r} only, got {objective!r}",
                reason="objective",
            )
        return batch_bisection_search(
            ensemble,
            bounds,
            rows=rows,
            criterion=criterion,
            min_reliability=min_reliability,
        )

    return solve_batch
