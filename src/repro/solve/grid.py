"""Auto-derived (P, L) bounds grids: paper-style curves for any workload.

The paper's figures sweep a bound (period or latency) across the
feasibility transition of its two hand-tuned workloads; the sweep
ranges (Figures 6-15) were picked by hand to straddle that transition.
A declarative scenario has no hand to pick them — so
:func:`derive_bounds_grid` derives them from the ensemble itself:

1. solve every instance *unbounded* with a fast heuristic, and read
   off each solution's worst-case period and latency — bounds under
   which every instance is certainly (heuristically) feasible;
2. compute each instance's *analytic lower bounds* — the heaviest
   single task on the fastest processor (no mapping can have a smaller
   period) and the whole chain on the fastest processor (no mapping a
   smaller latency) — bounds at or below the feasibility frontier;
3. blend the two quantile functions: grid point ``q`` is
   ``(1-q) * quantile(lower, q) + q * quantile(upper, q)``, sweeping
   from the certainly-hard end to the certainly-easy end.

Both quantile functions are nondecreasing and the upper one dominates
the lower pointwise, so the blend is monotone — a valid sweep axis.
By construction the sweep crosses the feasibility transition: near the
0-quantile few (often zero) instances are solvable, at the 1-quantile
all of them are (every instance's own unbounded solution meets the
bound), so the solution-count curves rise across the grid exactly like
the paper's Figures 6/8/12/14 — for *any* scenario, not just the two
hand-tuned workloads the paper shipped with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.obs import telemetry as obs

__all__ = ["BoundsGrid", "check_grid_points", "derive_bounds_grid"]

#: Default number of grid points per axis.
DEFAULT_POINTS = 8

#: Default headroom multiplier for the fixed (non-swept) bound: the
#: period sweep holds latency at ``margin * max`` unbounded latency so
#: the latency criterion never interferes with the period curve (and
#: vice versa).
DEFAULT_MARGIN = 1.25


@dataclass(frozen=True)
class BoundsGrid:
    """A derived (P, L) grid: one sweep per bounded criterion.

    Attributes
    ----------
    periods, latencies:
        Quantile-derived sweep values for the period / latency bound.
    quantiles:
        The quantile levels the values were read at (shared by both
        axes).
    max_period, max_latency:
        Generous caps (ensemble max × margin) used as the *fixed* bound
        while the other axis sweeps.
    n_instances:
        Ensemble size the grid was derived from.
    method:
        Name of the method whose unbounded solves produced the data.
    """

    periods: tuple[float, ...]
    latencies: tuple[float, ...]
    quantiles: tuple[float, ...]
    max_period: float
    max_latency: float
    n_instances: int
    method: str

    def sweep(self, axis: str = "period") -> list[tuple[float, float]]:
        """The ``(max_period, max_latency)`` points of one sweep.

        ``axis="period"`` sweeps P with L held at :attr:`max_latency`
        (Figure 6 shape); ``axis="latency"`` sweeps L with P held at
        :attr:`max_period` (Figure 8 shape).
        """
        if axis == "period":
            return [(P, self.max_latency) for P in self.periods]
        if axis == "latency":
            return [(self.max_period, L) for L in self.latencies]
        raise ValueError(f"unknown sweep axis {axis!r} (use 'period' or 'latency')")

    def xs(self, axis: str = "period") -> list[float]:
        """Plot coordinates of :meth:`sweep` (the swept bound values)."""
        if axis == "period":
            return list(self.periods)
        if axis == "latency":
            return list(self.latencies)
        raise ValueError(f"unknown sweep axis {axis!r} (use 'period' or 'latency')")

    def describe(self) -> dict[str, Any]:
        """JSON-ready record for run manifests."""
        return {
            "periods": list(self.periods),
            "latencies": list(self.latencies),
            "quantiles": list(self.quantiles),
            "max_period": self.max_period,
            "max_latency": self.max_latency,
            "n_instances": self.n_instances,
            "method": self.method,
        }


def check_grid_points(n_points: int) -> None:
    """Reject a grid of fewer than two evenly spaced points."""
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")


def derive_bounds_grid(
    instances,
    quantiles: "Sequence[float] | None" = None,
    *,
    n_points: int = DEFAULT_POINTS,
    margin: float = DEFAULT_MARGIN,
    method: str = "heuristic",
    seed: int = 0,
    n_instances: "int | None" = None,
    cache=None,
) -> BoundsGrid:
    """Derive a (P, L) bounds grid from unbounded solves over an ensemble.

    Parameters
    ----------
    instances:
        A columnar :class:`~repro.core.ensemble.Ensemble` (or list of
        them), ``(chain, platform)`` pairs — or a declarative workload
        (a registered scenario name, a
        :class:`~repro.scenarios.spec.ScenarioSpec`, or a
        :class:`~repro.scenarios.registry.Scenario`), generated here
        with *seed* / *n_instances*.  Paired (Section 8.2-shaped)
        scenarios contribute their heterogeneous side, matching
        :func:`~repro.experiments.harness.run_sweep`.
    quantiles:
        Explicit quantile levels in [0, 1]; default ``n_points`` levels
        evenly spaced from 0 to 1.
    margin:
        Headroom multiplier for the fixed bound of each sweep.
    method:
        Registered method for the unbounded probe solves (default: the
        combined Section 7 heuristic — fast and platform-agnostic).
    seed, n_instances:
        Scenario generation knobs; ignored for explicit instance lists.
    cache:
        A :class:`~repro.experiments.cache.ResultCache`, a cache
        directory path, or ``None`` to read ``$REPRO_CACHE_DIR`` (unset
        = no caching).  The unbounded probe solves are ordinary sweep
        units (:func:`~repro.experiments.harness.run_sweep` at the one
        point ``(inf, inf)``), so re-deriving a grid over the same
        ensemble — every warm ``--grid auto`` run — costs zero solves.
    """
    if quantiles is None:
        check_grid_points(n_points)
        quantiles = np.linspace(0.0, 1.0, n_points)
    quantiles = tuple(float(q) for q in quantiles)
    if not quantiles:
        raise ValueError("need at least one quantile")
    if any(not 0.0 <= q <= 1.0 for q in quantiles):
        raise ValueError(f"quantiles must lie in [0, 1], got {quantiles}")
    if not margin >= 1.0:
        raise ValueError(f"margin must be >= 1 (headroom), got {margin}")

    from repro.experiments.harness import _resolve_instances, run_sweep
    from repro.experiments.methods import get_method

    ensembles, _ = _resolve_instances(instances, seed, n_instances, None)
    n_total = sum(len(e) for e in ensembles)
    if not n_total:
        raise ValueError("need at least one instance to derive a grid from")

    with obs.span("grid.derive", label=method):
        # The probes are ordinary sweep units: one unbounded point per
        # instance, served by the method's kernel and the result cache
        # like any other unit.
        probes = run_sweep(
            ensembles, [get_method(method)], [(math.inf, math.inf)], jobs=1, cache=cache
        )
        for event in probes.unit_events:
            counter = "cached" if event["source"] == "cache" else "solved"
            obs.counter(f"grid.probe.{counter}", label=method)
    # Analytic lower bounds, vectorized over the ensemble columns: some
    # interval holds the heaviest task (period), and every task executes
    # somewhere along the chain (latency) — no mapping beats the fastest
    # processor on either.  No objects.
    s_max = np.concatenate([e.speeds.max(axis=1) for e in ensembles])
    lo_periods = np.concatenate([e.work.max(axis=1) for e in ensembles]) / s_max
    lo_latencies = np.concatenate([e.work.sum(axis=1) for e in ensembles]) / s_max
    feasible = probes.solved[0, 0]
    hi_periods = probes.period[0, 0][feasible]
    hi_latencies = probes.latency[0, 0][feasible]
    lo_periods, lo_latencies = lo_periods[feasible], lo_latencies[feasible]
    if not hi_periods.size:  # pragma: no cover - unbounded heuristics map
        raise ValueError(
            f"method {method!r} solved no instance even unbounded; "
            f"cannot derive a grid"
        )

    def blend(lower: np.ndarray, upper: np.ndarray) -> tuple[float, ...]:
        lo_q = np.quantile(lower, quantiles)
        hi_q = np.quantile(upper, quantiles)
        qs = np.asarray(quantiles)
        return tuple(float(v) for v in (1.0 - qs) * lo_q + qs * hi_q)

    return BoundsGrid(
        periods=blend(lo_periods, hi_periods),
        latencies=blend(lo_latencies, hi_latencies),
        quantiles=quantiles,
        max_period=float(hi_periods.max()) * margin,
        max_latency=float(hi_latencies.max()) * margin,
        n_instances=n_total,
        method=method,
    )
