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
from typing import Any

import numpy as np

from repro.obs import telemetry as obs

__all__ = ["BoundsGrid", "check_grid_points", "derive_bounds_grid", "linear_quantiles"]

#: Default number of grid points per axis.
DEFAULT_POINTS = 8

#: Headroom multiplier for the fixed (non-swept) bound: the period sweep
#: holds latency at ``DEFAULT_MARGIN * max`` unbounded latency so the
#: latency criterion never interferes with the period curve (and vice
#: versa).
DEFAULT_MARGIN = 1.25

#: The registered method whose unbounded solves probe the ensemble: the
#: combined Section 7 heuristic, fast and platform-agnostic.
PROBE_METHOD = "heuristic"


@dataclass(frozen=True)
class BoundsGrid:
    """A derived (P, L) grid: one sweep per bounded criterion.

    Attributes
    ----------
    periods, latencies:
        Quantile-derived sweep values for the period / latency bound.
    quantiles:
        The quantile levels the values were read at (shared by both
        axes): ``n_points`` levels evenly spaced from 0 to 1.
    max_period, max_latency:
        Generous caps (ensemble max × :data:`DEFAULT_MARGIN`) used as
        the *fixed* bound while the other axis sweeps.
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


def linear_quantiles(values, levels) -> np.ndarray:
    """``np.quantile(values, levels)`` (its default linear method), bit
    for bit, for a non-empty 1-D sample whose zeros are read as ``+0.0``.

    The same arithmetic: the virtual index ``(n - 1) * q`` picks two
    neighbours in the sorted sample, interpolated from the nearer one.
    ``np.quantile`` itself partitions through ``np.unique``, whose first
    call imports ``numpy.ma`` (about 15 ms of every cold grid run).
    ``-0.0`` and ``0.0`` compare equal, so a sort or a partition may put
    either at an index; adding ``0.0`` first turns every ``-0.0`` into
    ``+0.0`` and leaves one zero to pick.

    >>> linear_quantiles([4.0, 1.0, 3.0, 2.0], (0.0, 0.5, 1.0)).tolist()
    [1.0, 2.5, 4.0]
    """
    a = np.sort(np.asarray(values, dtype=float) + 0.0)
    q = np.asarray(levels, dtype=float)
    if np.isnan(a[-1]):  # NaN sorts last; a sample holding one has NaN quantiles
        return np.full(q.shape, np.nan)
    virtual = (a.size - 1) * q
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= a.size - 1
    lo[top] = hi[top] = -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    gamma = virtual - lo
    diff = a[hi] - a[lo]
    out = a[lo] + diff * gamma
    upper = gamma >= 0.5
    out[upper] = (a[hi] - diff * (1 - gamma))[upper]
    return out


def check_grid_points(n_points: int) -> None:
    """Reject a grid of fewer than two evenly spaced points."""
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")


def derive_bounds_grid(
    instances,
    *,
    n_points: int = DEFAULT_POINTS,
    seed: int = 0,
    n_instances: "int | None" = None,
    cache=None,
) -> BoundsGrid:
    """Derive a (P, L) bounds grid from unbounded solves over an ensemble.

    The grid has one shape: ``n_points`` quantile levels evenly spaced
    from 0 to 1, probe solves by :data:`PROBE_METHOD`, and fixed bounds
    at :data:`DEFAULT_MARGIN` times the largest probed value.

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
    n_points:
        Quantile levels per axis (at least 2).
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
    check_grid_points(n_points)
    quantiles = tuple(float(q) for q in np.linspace(0.0, 1.0, n_points))

    from repro.experiments.harness import _resolve_instances, run_sweep
    from repro.experiments.methods import get_method

    ensembles, _ = _resolve_instances(instances, seed, n_instances, None)
    n_total = sum(len(e) for e in ensembles)
    if not n_total:
        raise ValueError("need at least one instance to derive a grid from")

    with obs.span("grid.derive", label=PROBE_METHOD):
        # The probes are ordinary sweep units: one unbounded point per
        # instance, served by the method's kernel and the result cache
        # like any other unit.
        probes = run_sweep(
            ensembles, [get_method(PROBE_METHOD)], [(math.inf, math.inf)], jobs=1, cache=cache
        )
        for event in probes.unit_events:
            counter = "cached" if event["source"] == "cache" else "solved"
            obs.counter(f"grid.probe.{counter}", label=PROBE_METHOD)
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
            f"method {PROBE_METHOD!r} solved no instance even unbounded; "
            f"cannot derive a grid"
        )

    def blend(lower: np.ndarray, upper: np.ndarray) -> tuple[float, ...]:
        lo_q = linear_quantiles(lower, quantiles)
        hi_q = linear_quantiles(upper, quantiles)
        qs = np.asarray(quantiles)
        return tuple(float(v) for v in (1.0 - qs) * lo_q + qs * hi_q)

    return BoundsGrid(
        periods=blend(lo_periods, hi_periods),
        latencies=blend(lo_latencies, hi_latencies),
        quantiles=quantiles,
        max_period=float(hi_periods.max()) * DEFAULT_MARGIN,
        max_latency=float(hi_latencies.max()) * DEFAULT_MARGIN,
        n_instances=n_total,
        method=PROBE_METHOD,
    )
