"""One configuration and runner per evaluation figure (Figures 6-15).

The paper's five experiments each produce two figures (a solution-count
plot and an average-failure-probability plot), so figures come in pairs
sharing one sweep:

=============  =====================================  ==================
Experiment     Sweep                                  Figures
=============  =====================================  ==================
hom-period     hom, L = 750, P in [1, 500]            6 (count), 7 (fail)
hom-latency    hom, P = 250, L in [500, 1100]         8 (count), 9 (fail)
hom-linked     hom, L = 3P, P in [150, 350]           10 (count), 11 (fail)
het-period     het vs hom5, L = 150, P in [1, 150]    12 (count), 13 (fail)
het-latency    het vs hom5, P = 50, L in [50, 250]    14 (count), 15 (fail)
=============  =====================================  ==================

Grid sizes: ``grid="reduced"`` (default; minutes on a laptop) or
``grid="full"`` (the paper's resolution).  The instance count defaults
to 20 (the paper used 100).  Both are plain parameters: no environment
variable changes them, so a run's recorded identity holds the values it
ran with.  The sweep execution knobs are inherited from
:mod:`repro.experiments.harness`:
``jobs`` fans units out over worker processes and
``cache``/``$REPRO_CACHE_DIR`` makes repeated runs (sibling figures,
benches, the CLI) reuse solved units instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.experiments.harness import SweepResult, run_sweep
from repro.scenarios import generate_ensemble, get_scenario, scenario_hash
from repro.solve.planner import Plan, Planner

__all__ = [
    "EXPERIMENTS",
    "FIGURES",
    "ExperimentSpec",
    "FigureResult",
    "run_experiment",
    "run_figure",
]


def _grid(lo: float, hi: float, reduced_points: int, full_step: float, grid: str) -> np.ndarray:
    if grid == "full":
        return np.arange(lo, hi + full_step / 2, full_step, dtype=float)
    if grid == "reduced":
        return np.linspace(lo, hi, reduced_points)
    raise ValueError(f"unknown grid {grid!r} (use 'reduced' or 'full')")


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one paired-figure experiment."""

    id: str
    kind: str  # "hom" or "het"
    description: str
    #: grid name -> sweep coordinates.
    sweep: Callable[[str], np.ndarray]
    #: sweep coordinate -> (max_period, max_latency).
    bounds: Callable[[float], tuple[float, float]]
    count_figure: str = ""
    failure_figure: str = ""
    #: Averaging rule for the failure figure.
    failure_rule: str = "common"


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "hom-period": ExperimentSpec(
        id="hom-period",
        kind="hom",
        description="homogeneous, L = 750, sweep period bound (Figs. 6-7)",
        sweep=lambda g: _grid(20.0, 500.0, 13, 10.0, g),
        bounds=lambda P: (P, 750.0),
        count_figure="fig6",
        failure_figure="fig7",
        failure_rule="common",
    ),
    "hom-latency": ExperimentSpec(
        id="hom-latency",
        kind="hom",
        description="homogeneous, P = 250, sweep latency bound (Figs. 8-9)",
        sweep=lambda g: _grid(500.0, 1100.0, 13, 10.0, g),
        bounds=lambda L: (250.0, L),
        count_figure="fig8",
        failure_figure="fig9",
        failure_rule="common",
    ),
    "hom-linked": ExperimentSpec(
        id="hom-linked",
        kind="hom",
        description="homogeneous, L = 3P, sweep period bound (Figs. 10-11)",
        sweep=lambda g: _grid(150.0, 350.0, 11, 5.0, g),
        bounds=lambda P: (P, 3.0 * P),
        count_figure="fig10",
        failure_figure="fig11",
        failure_rule="common",
    ),
    "het-period": ExperimentSpec(
        id="het-period",
        kind="het",
        description="het vs hom(speed 5), L = 150, sweep period (Figs. 12-13)",
        sweep=lambda g: _grid(10.0, 150.0, 13, 3.0, g),
        bounds=lambda P: (P, 150.0),
        count_figure="fig12",
        failure_figure="fig13",
        failure_rule="per-method",
    ),
    "het-latency": ExperimentSpec(
        id="het-latency",
        kind="het",
        description="het vs hom(speed 5), P = 50, sweep latency (Figs. 14-15)",
        sweep=lambda g: _grid(50.0, 250.0, 11, 4.0, g),
        bounds=lambda L: (50.0, L),
        count_figure="fig14",
        failure_figure="fig15",
        failure_rule="per-method",
    ),
}

#: figure id -> (experiment id, metric)
FIGURES: dict[str, tuple[str, str]] = {}
for _spec in EXPERIMENTS.values():
    FIGURES[_spec.count_figure] = (_spec.id, "count")
    FIGURES[_spec.failure_figure] = (_spec.id, "failure")


@dataclass
class ExperimentResult:
    """Raw sweeps of one experiment (hom: one sweep; het: two sweeps
    whose curve labels carry ``_het`` / ``_hom`` suffixes).

    ``scenario_spec`` / ``scenario_key`` identify the declarative
    workload the suites were materialized from (the sized
    ``section8-*`` spec and its content hash) — the manifest written
    by ``python -m repro experiment`` embeds both, so a run record is
    self-describing.  ``plan`` records how the paper-methods candidate
    set survived :meth:`repro.solve.Planner.plan` (the method list is
    derived, not hard-coded — skip reasons included).
    """

    spec: ExperimentSpec
    xs: np.ndarray
    sweeps: dict[str, SweepResult]
    n_instances: int
    grid: str
    exact_method: str
    scenario_spec: "object | None" = None
    scenario_key: "str | None" = None
    plan: "Plan | None" = None


@dataclass
class FigureResult:
    """One figure's series, ready for printing or plotting."""

    figure: str
    experiment: str
    metric: str  # "count" or "failure"
    xs: np.ndarray
    series: dict[str, np.ndarray]
    n_instances: int
    grid: str


def run_experiment(
    experiment: str,
    n_instances: int = 20,
    grid: str = "reduced",
    seed: int = 0,
    exact_method: str = "ilp",
    jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    """Run one paired-figure experiment and return its raw sweeps.

    Parameters
    ----------
    exact_method:
        ``"ilp"`` (the paper's reference) or ``"pareto-dp"`` (same
        optima, faster) — used only by the homogeneous experiments.
    jobs:
        Worker processes for the sweep fan-out (``None`` means 1;
        results are identical for any value).
    cache:
        Result cache (a :class:`~repro.experiments.cache.ResultCache`
        or directory path; ``None`` reads ``$REPRO_CACHE_DIR``).
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; available: {sorted(EXPERIMENTS)}"
        )
    spec = EXPERIMENTS[experiment]
    xs = spec.sweep(grid)
    bounds = [spec.bounds(float(x)) for x in xs]

    # The paper's methods per experiment kind are an explicit *candidate*
    # set; the scenario-aware planner — not this module — decides which
    # of them actually run (hard capability gates, expensive-first
    # order), so a plan with skip reasons documents every figure run.
    if spec.kind == "hom":
        candidates = [exact_method, "heur-l", "heur-p"]
        scn = get_scenario("section8-hom").spec.with_(n_instances=n_instances)
    else:
        # The "-paper" variants select best reliability before checking
        # bounds — the reading of Section 7 that reproduces Fig. 12's
        # non-monotone heterogeneous curves.
        candidates = ["heur-l-paper", "heur-p-paper"]
        scn = get_scenario("section8-het").spec.with_(n_instances=n_instances)
    plan = Planner().plan(scn, methods=candidates)
    if not plan.selected:  # pragma: no cover - paper dims pass the gates
        reasons = "; ".join(f"{s.method}: {s.reason}" for s in plan.skipped)
        raise ValueError(
            f"planner rejected every candidate method for {experiment!r} ({reasons})"
        )
    methods = plan.methods()
    scn_hash = scenario_hash(scn)

    sweeps: dict[str, SweepResult] = {}
    if spec.kind == "hom":
        # The Section 8.1 suite as a columnar ensemble from its
        # declarative spec (rows bit-identical to the legacy
        # homogeneous_suite for any seed).
        ensemble = generate_ensemble(scn, seed=seed)
        sweeps["hom"] = run_sweep(
            ensemble, methods, bounds, xs=xs, jobs=jobs, cache=cache,
            scenario_key=scn_hash,
        )
    else:
        # A paired ensemble's rows hold the heterogeneous side; its
        # hom_counterpart() is the columnar speed-5 twin.  One scenario
        # hash for both sides: the unit keys already hash each
        # instance's platform, so het/hom units cannot collide — and a
        # direct run_sweep("section8-het", ...) shares this cache.
        ensemble = generate_ensemble(scn, seed=seed)
        sweeps["het"] = run_sweep(
            ensemble, methods, bounds, xs=xs, jobs=jobs, cache=cache,
            scenario_key=scn_hash,
        )
        sweeps["hom"] = run_sweep(
            ensemble.hom_counterpart(), methods, bounds, xs=xs, jobs=jobs,
            cache=cache, scenario_key=scn_hash,
        )
    return ExperimentResult(
        spec=spec,
        xs=xs,
        sweeps=sweeps,
        n_instances=n_instances,
        grid=grid,
        exact_method=exact_method,
        scenario_spec=scn,
        scenario_key=scn_hash,
        plan=plan,
    )


def run_figure(figure: str, experiment_result: ExperimentResult) -> FigureResult:
    """One figure's series, read off its experiment's sweeps.

    *experiment_result* is :func:`run_experiment`'s result for the
    figure's experiment (``FIGURES[figure][0]``); both figures of a
    pair read the same run.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; available: {sorted(FIGURES)}")
    exp_id, metric = FIGURES[figure]
    if experiment_result.spec.id != exp_id:
        raise ValueError(
            f"experiment result is for {experiment_result.spec.id!r}, "
            f"figure {figure} needs {exp_id!r}"
        )
    spec = experiment_result.spec
    series: dict[str, np.ndarray] = {}
    if spec.kind == "hom":
        sweep = experiment_result.sweeps["hom"]
        for name in sweep.method_names:
            label = "ilp" if name == experiment_result.exact_method else name
            if metric == "count":
                series[label] = sweep.counts(name)
            else:
                series[label] = sweep.average_failure(name, rule=spec.failure_rule)
    else:
        for plat_kind in ("het", "hom"):
            sweep = experiment_result.sweeps[plat_kind]
            for name in sweep.method_names:
                label = f"{name.removesuffix('-paper')}_{plat_kind}"
                if metric == "count":
                    series[label] = sweep.counts(name)
                else:
                    series[label] = sweep.average_failure(name, rule=spec.failure_rule)
    return FigureResult(
        figure=figure,
        experiment=exp_id,
        metric=metric,
        xs=experiment_result.xs,
        series=series,
        n_instances=experiment_result.n_instances,
        grid=experiment_result.grid,
    )
