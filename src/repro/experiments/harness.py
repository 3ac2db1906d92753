"""Bound-sweep runner: columnar, parallel, cache-backed, deterministic.

For a suite of instances and a list of sweep points ``(P, L)``, run each
method on each instance at each point and aggregate the statistics the
paper plots:

* **number of solutions** — instances for which the method found a
  mapping within the bounds (Figures 6, 8, 10, 12, 14);
* **average failure probability** — with two averaging rules, both used
  by the paper:

  - ``"common"`` (Figures 7, 9, 11): average over the instances where
    *both heuristics* found a solution ("the average failure
    probability of the instances where both heuristics have found a
    solution", Section 8.1) — every curve is averaged over that same
    instance set;
  - ``"per-method"`` (Figures 13, 15): each curve averages over the
    instances *it* solved ("the average values are then not computed on
    the same set of instances", Section 8.2);

* **achieved objective quantiles** — per-point p10/p50/p90 of the
  solved instances' :meth:`~repro.algorithms.result.SolveResult
  .objective_value` (the optimal reliability/period/latency/energy
  across the ensemble), so converse-objective curves carry the same
  richness as the Figure 6 ones.

Execution model
---------------
Instances travel as columnar ensembles
(:class:`repro.core.ensemble.Ensemble`): scenario arguments generate
them natively, explicit ``(chain, platform)`` lists are grouped into
them, and rows only materialize ``TaskChain``/``Platform`` objects when
a solver actually runs.  The sweep decomposes into independent **work
units** — one registered method run on one instance across the whole
bounds list.  Units are

* **batched**: methods that carry a
  :attr:`~repro.experiments.methods.Method.solve_batch` kernel solve
  all of an ensemble's uncached, unseeded units in one columnar call
  per ``(method, ensemble)`` group — bit-identical to the per-row
  path (same arrays, same cache entries), just without the Python
  loop.  Kernels cover reliability floors, the converse objectives
  (``dp-period``/``dp-latency``), and the heterogeneous searches, and
  each serves every unit the sweep's validation lets through, so a
  unit's path depends on its method alone: cache, then the kernel if
  the method has one, then a per-row solve.  Kernel groups run in the
  parent, before any worker fan-out;
* **cached**: each unit's ``(solved, failure, objective_values,
  period, latency)`` arrays are stored under a content hash derived
  from the method name, the instance's raw-array *row digest*
  (:meth:`~repro.core.ensemble.Ensemble.row_hash`), the objective
  fields, the per-unit seed, and — for sweeps materialized from a
  declarative scenario (:mod:`repro.scenarios`) — the scenario spec's
  content hash (:mod:`repro.experiments.cache`).  A warm sweep
  therefore touches only array bytes: no objects, no JSON;
* **parallel**: with ``jobs > 1``, uncached units fan out over a
  :class:`concurrent.futures.ProcessPoolExecutor` in **columnar
  shards**: workers receive the method *name* plus one payload per
  shard carrying the raw rows of several instances (closures do not
  pickle; registry names and arrays do), rebuild a small ensemble, and
  run the same per-row solves as the parent — results land back by
  unit index, so parallel output is **bit-identical** to the serial
  path.  Expensive
  units (by :attr:`Method.cost_hint`) are submitted first so they do
  not straggle at the tail of the pool queue.  A worker that dies
  (killed, out of memory) breaks the pool; the parent then recomputes
  every shard left without a result and records those units as
  ``"recovered"``;
* **recorded**: kernels, per-row solves, worker shards and cache hits
  all yield :class:`~repro.algorithms.batch.UnitResults` rows, and one
  ``finish`` step writes each into the sweep arrays, the cache and
  the ledger's unit events;
* **seeded**: stochastic methods (``Method.seeded``) get a
  deterministic per-unit seed via :func:`repro.util.rng.stable_seed`,
  derived from the unit's content — identical whether the unit runs
  serially, in a worker, or is replayed from cache.

Environment
-----------
``REPRO_JOBS``
    Default worker count when ``jobs`` is ``None`` (default 1 =
    serial).
``REPRO_CACHE_DIR``
    Default cache directory when ``cache`` is ``None`` (unset = no
    caching).  Cache lookups and stores happen only in the parent
    process; worker shards receive columnar payloads, never a cache.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.algorithms.batch import UnitResults
from repro.core.ensemble import Ensemble, InstanceView, ensembles_from_instances
from repro.experiments.cache import (
    ResultCache,
    resolve_cache,
    unit_arrays,
    unit_record,
)
from repro.experiments.methods import METHODS, Method, UnknownMethodError, get_method
from repro.obs import telemetry as obs
from repro.solve.problem import Problem, check_bound
from repro.util.rng import stable_seed

__all__ = ["SweepResult", "run_sweep", "resolve_jobs", "check_min_reliability"]

#: Shard sizing: aim for this many shards per worker (load balancing
#: headroom) without exceeding _SHARD_MAX units per payload.
_SHARD_WAVES = 4
_SHARD_MAX = 32


@dataclass
class SweepResult:
    """Raw sweep data plus the paper's aggregations.

    Attributes
    ----------
    xs:
        The sweep coordinate (one per sweep point) — a period or a
        latency bound, depending on the experiment.
    method_names:
        Curve labels, in run order.
    solved:
        Boolean array ``(n_methods, n_points, n_instances)``.
    failure:
        Failure probability array, same shape (1.0 where unsolved).
    objective_values:
        Achieved objective value array, same shape — what
        :meth:`~repro.algorithms.result.SolveResult.objective_value`
        returned per solve (0.0 / ``inf`` fill where unsolved,
        matching its conventions).
    period, latency:
        The witness mapping's worst-case period and latency, same
        layout as :attr:`solved` (``inf`` where unsolved).
    objective:
        The :data:`repro.solve.OBJECTIVES` entry the sweep carried.
    batch_units:
        How many work units the batched kernels served (0 when no
        method carries one, batching was disabled, or every unit came
        from cache) — diagnostics only, the arrays are bit-identical
        either way.
    timings:
        Phase wall-clock breakdown of the sweep (``total``,
        ``cache_lookup``, ``batch``, ``solve`` seconds) — structured
        data the run ledger derives its timing records from.
    unit_events:
        One record per work unit, in deterministic ``(method,
        instance)`` order: ``method``, ``instance`` (flat index),
        ``source`` (``"cache"`` / ``"batch"`` / ``"parent"`` /
        ``"worker"`` / ``"recovered"``), ``solved`` count, ``seconds``
        where measured (batch-served units carry the kernel group's
        amortized share and ``batch_group``; cache hits carry
        ``None``), and — for search methods that report them —
        per-unit ``probes`` totals and a ``converged`` flag.
        This is the ledger's ``per_unit.jsonl``, derived from data
        rather than log scraping.
    """

    xs: np.ndarray
    method_names: list[str]
    solved: np.ndarray
    failure: np.ndarray
    objective_values: np.ndarray
    period: np.ndarray
    latency: np.ndarray
    objective: str = "reliability"
    batch_units: int = 0
    timings: dict = field(default_factory=dict)
    unit_events: list = field(default_factory=list)

    def method_seconds(self) -> dict[str, float]:
        """Measured per-method solve wall-clock, summed over units.

        Cache-served units contribute nothing (they cost no solve);
        batch-served units contribute their amortized kernel share.
        """
        out: dict[str, float] = {}
        for event in self.unit_events:
            seconds = event.get("seconds")
            if seconds is not None:
                out[event["method"]] = out.get(event["method"], 0.0) + seconds
        return out

    def counts(self, method: str) -> np.ndarray:
        """Solutions found per sweep point (the Fig. 6-style series)."""
        return self.solved[self._idx(method)].sum(axis=1)

    def average_failure(
        self, method: str, rule: str = "common", heuristics: Sequence[str] = ("heur-l", "heur-p")
    ) -> np.ndarray:
        """Average failure probability per sweep point (Fig. 7 style).

        ``rule="common"`` averages over instances solved by *all* of
        *heuristics* (the paper's hom rule); ``rule="per-method"`` over
        instances solved by *method* itself (the het rule).  Points with
        an empty averaging set yield NaN (plotted as gaps).
        """
        i = self._idx(method)
        if rule == "common":
            mask = np.ones(self.solved.shape[1:], dtype=bool)
            for h in heuristics:
                if h in self.method_names:
                    mask &= self.solved[self._idx(h)]
            # The method itself must also have solved the instance for
            # its failure probability to be meaningful.
            mask = mask & self.solved[i]
        elif rule == "per-method":
            mask = self.solved[i]
        else:
            raise ValueError(f"unknown averaging rule {rule!r}")
        sums = np.where(mask, self.failure[i], 0.0).sum(axis=1)
        counts = mask.sum(axis=1)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

    def objective_quantiles(
        self, method: str, quantiles: Sequence[float] = (0.1, 0.5, 0.9)
    ) -> np.ndarray:
        """Per-point quantiles of the achieved objective value.

        Returns a ``(len(quantiles), n_points)`` array of quantiles of
        :attr:`objective_values` over the instances *method* solved at
        each point (NaN where it solved none) — p10/p50/p90 by
        default, the spread the converse-objective curves plot
        alongside solved counts.
        """
        i = self._idx(method)
        qs = [float(q) for q in quantiles]
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValueError(f"quantiles must lie in [0, 1], got {quantiles!r}")
        mask = self.solved[i]
        values = self.objective_values[i]
        out = np.full((len(qs), mask.shape[0]), np.nan)
        for pt in range(mask.shape[0]):
            picked = values[pt, mask[pt]]
            if picked.size:
                out[:, pt] = np.quantile(picked, qs)
        return out

    def _idx(self, method: str) -> int:
        try:
            return self.method_names.index(method)
        except ValueError:
            raise UnknownMethodError(
                f"method {method!r} not in sweep; curves available: "
                f"{self.method_names}"
            ) from None


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``jobs`` argument: ``None`` -> ``$REPRO_JOBS`` -> 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1") or "1"
        if not (raw.strip().isdecimal() and int(raw) >= 1):
            raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
        return int(raw)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def check_min_reliability(min_reliability: float, objective: str) -> float:
    """Validate a sweep's reliability floor for *objective*; returns it
    as a float.  A floor lies in ``[0, 1)`` (0 = none) and constrains
    the converse objectives only."""
    min_reliability = float(min_reliability)
    if math.isnan(min_reliability) or not 0.0 <= min_reliability < 1.0:
        raise ValueError(
            f"min_reliability must lie in [0, 1) (0 = no floor), got {min_reliability!r}"
        )
    if objective == "reliability" and min_reliability != 0.0:
        raise ValueError(
            "min_reliability is a constraint for the converse objectives "
            "('period', 'latency', 'energy'); with objective='reliability' "
            "the criterion itself is maximized — leave the floor at 0.0"
        )
    return min_reliability


def _unit_problems(
    base: Problem, bounds: Sequence[tuple[float, float]]
) -> list[Problem]:
    """The unit's Problem family: one bounded copy of *base* per point."""
    return [base.with_bounds(max_period=P, max_latency=L) for P, L in bounds]


def _solve_rows(
    method: Method,
    views: Sequence[InstanceView],
    bounds: Sequence[tuple[float, float]],
    seeds: Sequence["int | None"],
    objective: str,
    min_reliability: float,
) -> "tuple[UnitResults, list[float]]":
    """Per-row solves: one work unit per view, each over every bound.

    The single computation shared verbatim by the parent and the
    worker processes — the reason ``jobs=1`` and ``jobs=N`` agree bit
    for bit.  Materializes each view's chain/platform here (and only
    here): cached units never reach this function.

    Returns the units' :class:`~repro.algorithms.batch.UnitResults`
    and each unit's wall-clock seconds.  A row's info aggregates the
    solve details search methods report — total ``probes`` across the
    unit's points and a ``converged`` flag (False when any point's
    search exhausted its budget) — and stays ``None`` for methods that
    report neither.
    """
    out = UnitResults.empty(len(views), len(bounds), objective)
    seconds = []
    for r, (view, seed) in enumerate(zip(views, seeds)):
        t0 = time.perf_counter()
        with obs.span("sweep.unit", label=method.name):
            base = view.problem(objective=objective, min_reliability=min_reliability)
            probes = 0
            converged: "bool | None" = None
            for pi, problem in enumerate(_unit_problems(base, bounds)):
                res = method.solve_problem(
                    problem, seed=stable_seed(seed, pi) if method.seeded else None
                )
                out.solved[r, pi] = res.feasible
                if res.feasible:
                    ev = res.evaluation
                    out.failure[r, pi] = ev.failure_probability
                    out.period[r, pi] = ev.worst_case_period
                    out.latency[r, pi] = ev.worst_case_latency
                out.values[r, pi] = res.objective_value(objective)
                details = res.details
                if details:
                    probes += int(details.get("probes", 0) or 0)
                    if "converged" in details:
                        converged = bool(details["converged"]) and (converged is not False)
            if probes or converged is not None:
                out.infos[r] = {"probes": probes}
                if converged is not None:
                    out.infos[r]["converged"] = converged
        seconds.append(time.perf_counter() - t0)
    return out, seconds


def _solve_shard_payload(
    method_name: str,
    fingerprint: str,
    shard: dict,
    bounds: Sequence[tuple[float, float]],
    seeds: Sequence["int | None"],
    objective: str,
    min_reliability: float,
    collect_telemetry: bool = False,
) -> "tuple[tuple[UnitResults, list[float]], dict | None]":
    """Worker-side entry point: rebuild a columnar shard and solve its rows.

    Module-level (picklable) and name-addressed: the worker resolves
    the method from its own registry and reassembles a small
    :class:`~repro.core.ensemble.Ensemble` from the shard's raw rows,
    so no closure — and no per-instance object graph — ever crosses
    the process boundary.  The fingerprint handshake guards spawn-start
    workers: if this process's registry binds *method_name* to
    different code than the parent's (a missing or differently
    re-registered method), raise UnknownMethodError so the parent
    recomputes the shard itself instead of silently using the wrong
    solver.  Workers only run per-row solves: the parent has already
    served every kernel-eligible unit.

    Returns ``(_solve_rows(...), telemetry_snapshot)``.  When
    *collect_telemetry* is set (the parent has a collector installed),
    the worker aggregates its own spans/counters into a snapshot the
    parent merges; otherwise the snapshot is ``None`` and nothing is
    collected.
    """
    method = get_method(method_name)
    if method.fingerprint() != fingerprint:
        raise UnknownMethodError(
            f"method {method_name!r} resolves to different code in this "
            f"worker than in the parent process"
        )
    views = list(Ensemble(**shard))
    if not collect_telemetry:
        return _solve_rows(method, views, bounds, seeds, objective, min_reliability), None
    with obs.collect() as telemetry:
        results = _solve_rows(method, views, bounds, seeds, objective, min_reliability)
    return results, telemetry.snapshot()


def _shard_payload(ensemble: Ensemble, rows: Sequence[int]) -> dict:
    """Columnar payload for a shard: the raw rows the units need."""
    rows = list(rows)
    if ensemble.platform_shared:
        # One stored platform row serves every unit — ship it once.
        speeds = np.asarray(ensemble.speeds[:1])
        rates = np.asarray(ensemble.failure_rates[:1])
    else:
        speeds = ensemble.speeds[rows]
        rates = ensemble.failure_rates[rows]
    return {
        "work": ensemble.work[rows],
        "output": ensemble.output[rows],
        "speeds": speeds,
        "failure_rates": rates,
        "bandwidth": ensemble.bandwidth,
        "link_failure_rate": ensemble.link_failure_rate,
        "max_replication": ensemble.max_replication,
    }


def _unit_seed(
    method: Method,
    view: InstanceView,
    bounds: Sequence[tuple[float, float]],
    objective: str,
    min_reliability: float,
) -> "int | None":
    """Deterministic per-unit seed for stochastic methods (else None)."""
    if not method.seeded:
        return None
    return stable_seed(
        "sweep-unit",
        method.name,
        view.row_hash,
        objective,
        float(min_reliability),
        tuple((float(P), float(L)) for P, L in bounds),
    )


def _resolve_instances(
    instances, seed: int, n_instances: "int | None", scenario_key: "str | None"
) -> tuple["list[Ensemble]", "str | None"]:
    """Normalize an instances argument to columnar ensembles.

    An :class:`~repro.core.ensemble.Ensemble` (or a list of them)
    passes through; plain ``(chain, platform)`` lists are grouped into
    ensembles (:func:`repro.core.ensemble.ensembles_from_instances`)
    preserving order.  A scenario name,
    :class:`~repro.scenarios.spec.ScenarioSpec`, or
    :class:`~repro.scenarios.registry.Scenario` is generated here
    (seeded by *seed*, optionally overriding the spec's instance
    count), and the spec's content hash becomes the sweep's cache-key
    scenario component — unless the caller pinned *scenario_key*
    explicitly.  Paired (Section 8.2-shaped) ensembles contribute
    their heterogeneous side (their views); sweep
    :meth:`~repro.core.ensemble.Ensemble.hom_counterpart` separately
    (as :func:`repro.experiments.figures.run_experiment` does) to
    compare against the homogeneous counterparts.
    """
    if isinstance(instances, Ensemble):
        return [instances], scenario_key
    if isinstance(instances, (list, tuple)):
        return ensembles_from_instances(instances), scenario_key
    from repro.scenarios import generate_ensembles, resolve_scenario, scenario_hash

    spec, _ = resolve_scenario(instances)
    if n_instances is not None:
        spec = spec.with_(n_instances=n_instances)
    ensembles = generate_ensembles(spec, seed=seed)
    if scenario_key is None:
        scenario_key = scenario_hash(spec)
    return ensembles, scenario_key


def run_sweep(
    instances: "Ensemble | Sequence | str",
    methods: Sequence[Method],
    bounds: Sequence[tuple[float, float]],
    xs: Sequence[float] | None = None,
    *,
    jobs: "int | None" = None,
    cache: "ResultCache | str | os.PathLike[str] | None" = None,
    seed: int = 0,
    n_instances: "int | None" = None,
    scenario_key: "str | None" = None,
    objective: str = "reliability",
    min_reliability: float = 0.0,
    batch: bool = True,
) -> SweepResult:
    """Run every method on every instance at every bound point.

    Parameters
    ----------
    instances:
        A columnar :class:`~repro.core.ensemble.Ensemble` (or list of
        them), ``(chain, platform)`` pairs — or a declarative
        workload: a registered scenario name (``"section8-hom"``), a
        :class:`~repro.scenarios.spec.ScenarioSpec`, or a
        :class:`~repro.scenarios.registry.Scenario`.  Scenario
        ensembles are generated with *seed* (and *n_instances*, when
        given), and the spec's content hash is folded into every unit's
        cache key — a repeated sweep over the same named scenario is
        served entirely from cache.  All forms derive identical cache
        keys for identical instances, so an ensemble sweep and its
        materialized twin share entries bit for bit.
    methods:
        The methods to compare (a heterogeneous platform with a
        homogeneous-only method raises immediately).
    bounds:
        ``(max_period, max_latency)`` per sweep point.
    xs:
        Plot coordinates for the sweep points (defaults to the varying
        bound, detected automatically; falls back to the point index).
    jobs:
        Worker processes for the fan-out; ``None`` reads
        ``$REPRO_JOBS`` (default 1 = serial).  Results are identical
        for any value.
    cache:
        A :class:`~repro.experiments.cache.ResultCache`, a cache
        directory path, or ``None`` to read ``$REPRO_CACHE_DIR`` (unset
        = no caching).
    seed, n_instances:
        Scenario generation knobs; ignored for explicit instance lists.
    scenario_key:
        Explicit cache-key scenario component (overrides the derived
        spec hash; used by the experiment runners to distinguish the
        two sides of a paired scenario).
    objective, min_reliability:
        Carried by every unit's solves, so a sweep can count e.g. how
        many instances admit a period-minimizing mapping above a
        reliability floor as the latency bound varies — and aggregate
        the achieved optima (:meth:`SweepResult.objective_quantiles`).
        Both are cache-key ingredients, so sweeps over different
        objectives (or floors) never share entries.  Methods that do
        not declare the objective raise up front, exactly like a
        homogeneous-only method on a heterogeneous platform — plan
        with :meth:`repro.solve.Planner.plan` to pre-filter.
    batch:
        ``True`` (default) serves uncached, unseeded units of
        :attr:`~repro.experiments.methods.Method.solve_batch` methods
        through one columnar kernel call per ``(method, ensemble)``
        group (methods without a kernel run per row);
        ``False`` forces the per-row path, the reference the
        equivalence tests compare the kernels with.  Results are
        bit-identical either way, cache entries included.
        :attr:`SweepResult.batch_units` reports how many units the
        kernels served.
    """
    ensembles, scenario_key = _resolve_instances(instances, seed, n_instances, scenario_key)
    bounds, min_reliability = _validate(ensembles, methods, bounds, objective, min_reliability)
    xs_arr = _sweep_xs(bounds, xs)
    if not isinstance(batch, bool):
        raise ValueError(f"batch must be True or False, got {batch!r}")
    jobs = resolve_jobs(jobs)

    store = resolve_cache(cache)
    t_sweep = time.perf_counter()
    run = _SweepRun(ensembles, methods, bounds, objective, min_reliability,
                    store, scenario_key)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    pending = run.lookup()
    timings["cache_lookup"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if batch:
        pending = run.run_kernels(pending)
    timings["batch"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    run.run_rows(pending, jobs)
    timings["solve"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_sweep
    return run.result(xs_arr, timings)


def _validate(
    ensembles: "list[Ensemble]",
    methods: Sequence[Method],
    bounds: Sequence[tuple[float, float]],
    objective: str,
    min_reliability: float,
) -> "tuple[list[tuple[float, float]], float]":
    """Check a sweep's arguments up front; return the validated bounds
    and floor.

    Every path (kernel, per-row, cache key) sees the same validated
    floats; a NaN bound must not pass as a sweep of infeasible units.
    The objective and floor mirror Problem's own validation: bases
    materialize lazily, so a bad floor must not first surface
    mid-sweep (or silently land in cache keys).
    """
    from repro.solve.problem import OBJECTIVES

    if not any(len(e) for e in ensembles):
        raise ValueError("need at least one instance")
    if not bounds:
        raise ValueError("need at least one sweep point")
    bounds = [
        (check_bound("max_period", P), check_bound("max_latency", L))
        for P, L in bounds
    ]
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; supported: {OBJECTIVES}")
    min_reliability = check_min_reliability(min_reliability, objective)
    # Capability checks run once per ensemble over the raw columns —
    # no instance materializes just to be validated.
    for method in methods:
        for ensemble in ensembles:
            method.check_ensemble(ensemble, objective=objective)
    return bounds, min_reliability


def _sweep_xs(
    bounds: Sequence[tuple[float, float]], xs: "Sequence[float] | None"
) -> np.ndarray:
    """Plot coordinates: *xs* as given, else the varying bound."""
    if xs is not None:
        if len(xs) != len(bounds):
            raise ValueError("xs must align with bounds")
        return np.asarray(xs, dtype=float)
    periods = {p for p, _ in bounds}
    latencies = {l for _, l in bounds}
    axis = 0 if len(periods) >= len(latencies) else 1
    return np.array([point[axis] for point in bounds], dtype=float)


class _Unit(NamedTuple):
    """One work unit: method *mi* on flat instance *ii*."""

    mi: int
    ii: int
    seed: "int | None"
    key: "str | None"


class _SweepRun:
    """One sweep's state across its stages.

    :meth:`lookup` serves units from cache, :meth:`run_kernels` serves
    whole ``(method, ensemble)`` groups through ``solve_batch``, and
    :meth:`run_rows` solves the rest per row, locally or in a process
    pool.  Every stage records through :meth:`finish`.
    """

    def __init__(self, ensembles, methods, bounds, objective, min_reliability,
                 store, scenario_key) -> None:
        self.ensembles = ensembles
        self.methods = list(methods)
        self.bounds = bounds
        self.objective = objective
        self.min_reliability = min_reliability
        self.store = store
        self.scenario_key = scenario_key
        self.views: list[InstanceView] = [v for e in ensembles for v in e]
        # Flat instance index -> (owning ensemble, row within it).
        self.ensemble_of: list[int] = []
        self.row_of: list[int] = []
        for ei, ensemble in enumerate(ensembles):
            self.ensemble_of.extend([ei] * len(ensemble))
            self.row_of.extend(range(len(ensemble)))
        self.fingerprints = {
            m.name: m.fingerprint() for m in self.methods if self.registered(m)
        }
        # Row mi * n_instances + ii holds unit (mi, ii).
        self.results = UnitResults.empty(
            len(self.methods) * len(self.views), len(bounds), objective
        )
        self.unit_events: list[dict] = []
        self.batch_units = 0

    @staticmethod
    def registered(method: Method) -> bool:
        """Registry-resolved methods are the ones addressable by name:
        they may be cached (keyed by name + implementation fingerprint)
        and shipped to worker processes.  Ad-hoc Method objects run in
        the parent, uncached."""
        return METHODS.get(method.name) is method

    def finish(self, unit: _Unit, results: UnitResults, r: int, source: str,
               seconds: "float | None" = None,
               batch_group: "int | None" = None) -> None:
        """Record row *r* of *results* as *unit*'s outcome: the sweep
        arrays, a cache entry (unless it came from cache), the ledger
        event and the ``sweep.units.*`` counter."""
        method = self.methods[unit.mi]
        self.results.set_row(unit.mi * len(self.views) + unit.ii, results, r)
        if source != "cache" and self.store is not None and unit.key is not None:
            with obs.span("sweep.cache_write", label=method.name):
                self.store.put_record(unit.key, unit_record(results, r, method.name))
        info = results.infos[r]
        event = {
            "method": method.name,
            "instance": unit.ii,
            "source": source,
            "solved": int(results.solved[r].sum()),
            "seconds": seconds,
        }
        if batch_group is not None:
            event["batch_group"] = batch_group
        if info:
            event.update(info)
        self.unit_events.append(event)
        counter = "cached" if source == "cache" else source
        obs.counter(f"sweep.units.{counter}", label=method.name)

    def lookup(self) -> "list[_Unit]":
        """Serve cached units; return the rest as pending work."""
        n_pts = len(self.bounds)
        pending: list[_Unit] = []
        with obs.span("sweep.cache_lookup"):
            for mi, method in enumerate(self.methods):
                for ii, view in enumerate(self.views):
                    unit = _Unit(mi, ii, _unit_seed(
                        method, view, self.bounds, self.objective, self.min_reliability
                    ), None)
                    if self.store is not None and self.registered(method):
                        unit = unit._replace(key=self.store.unit_key_for(
                            method.name,
                            view.row_hash,
                            self.bounds,
                            seed=unit.seed,
                            fingerprint=self.fingerprints[method.name],
                            scenario=self.scenario_key,
                            objective=self.objective,
                            min_reliability=self.min_reliability,
                        ))
                        hit = self.store.get_record(
                            unit.key, method_name=method.name, n_points=n_pts
                        )
                        if hit is not None:
                            self.finish(unit, unit_arrays(hit, n_pts), 0, "cache")
                            continue
                    pending.append(unit)
        return pending

    def run_kernels(self, pending: "list[_Unit]") -> "list[_Unit]":
        """Serve whole ``(method, ensemble)`` groups in one kernel call.

        Only unseeded units qualify (per-unit seeds are a per-row
        concept).  Returns the units left for per-row solves.
        """
        groups: dict[tuple[int, int], list[_Unit]] = {}
        rest: list[_Unit] = []
        for unit in pending:
            if unit.seed is None and self.methods[unit.mi].solve_batch is not None:
                groups.setdefault((unit.mi, self.ensemble_of[unit.ii]), []).append(unit)
            else:
                rest.append(unit)
        for (mi, ei), units in groups.items():
            method = self.methods[mi]
            t0 = time.perf_counter()
            with obs.span("sweep.batch", label=method.name):
                results = method.solve_batch(
                    self.ensembles[ei],
                    self.bounds,
                    rows=[self.row_of[u.ii] for u in units],
                    objective=self.objective,
                    min_reliability=self.min_reliability,
                )
            share = (time.perf_counter() - t0) / len(units)
            for r, unit in enumerate(units):
                self.finish(unit, results, r, "batch", share, batch_group=len(units))
            self.batch_units += len(units)
        return rest

    def run_local(self, unit: _Unit, source: str = "parent") -> None:
        results, seconds = _solve_rows(
            self.methods[unit.mi], [self.views[unit.ii]], self.bounds, [unit.seed],
            self.objective, self.min_reliability,
        )
        self.finish(unit, results, 0, source, seconds[0])

    def run_rows(self, pending: "list[_Unit]", jobs: int) -> None:
        """Solve the pending units per row: in the parent, or fanned out
        over a process pool in columnar shards."""
        # Expensive methods first: with a shared pool, a 10x-cost ILP unit
        # submitted last would serialize the tail of the run.
        pending = sorted(pending, key=lambda u: (-self.methods[u.mi].cost_hint, u.mi, u.ii))
        # Only registry-resolvable methods can be addressed by name in a
        # worker; ad-hoc Method objects stay in the parent process.
        remote = []
        if jobs > 1 and len(pending) > 1:
            remote = [u for u in pending if self.registered(self.methods[u.mi])]
        remote_set = set(remote)
        local = [u for u in pending if u not in remote_set]
        if not remote:
            for unit in local:
                self.run_local(unit)
            return
        # Imported only when a pool starts: a serial run skips
        # multiprocessing and its socket/selector machinery.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        shards = self._shards(remote, jobs)
        collect_telemetry = obs.active() is not None
        with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
            futures = {}
            for shard in shards:
                name = self.methods[shard[0].mi].name
                ensemble = self.ensembles[self.ensemble_of[shard[0].ii]]
                fut = pool.submit(
                    _solve_shard_payload,
                    name,
                    self.fingerprints[name],
                    _shard_payload(ensemble, [self.row_of[u.ii] for u in shard]),
                    self.bounds,
                    [u.seed for u in shard],
                    self.objective,
                    self.min_reliability,
                    collect_telemetry,
                )
                futures[fut] = shard
            # The parent works through its own (unpicklable) units while
            # the pool churns, then drains the futures.
            for unit in local:
                self.run_local(unit)
            for fut in as_completed(futures):
                shard = futures[fut]
                try:
                    (results, seconds), worker_telemetry = fut.result()
                except UnknownMethodError:
                    # Spawn-start workers re-import the registry and may
                    # miss (or re-bind) methods registered at runtime;
                    # redo the shard here rather than fail the sweep or
                    # run the wrong code.
                    for unit in shard:
                        self.run_local(unit)
                    continue
                except BrokenProcessPool:
                    # A worker died and the pool failed every shard
                    # still without a result; recompute each here.
                    for unit in shard:
                        self.run_local(unit, "recovered")
                    continue
                active = obs.active()
                if active is not None:
                    active.merge(worker_telemetry)
                for r, unit in enumerate(shard):
                    self.finish(unit, results, r, "worker", seconds[r])

    def _shards(self, remote: "list[_Unit]", jobs: int) -> "list[list[_Unit]]":
        """Group remote units into columnar shards: one payload ships
        several instances' raw rows for one (method, ensemble) pair."""
        shard_size = max(1, min(_SHARD_MAX, -(-len(remote) // (jobs * _SHARD_WAVES))))
        shards: list[list[_Unit]] = []
        open_shards: dict[tuple[int, int], list[_Unit]] = {}
        for unit in remote:
            group = (unit.mi, self.ensemble_of[unit.ii])
            shard = open_shards.get(group)
            if shard is None or len(shard) >= shard_size:
                shard = []
                shards.append(shard)
                open_shards[group] = shard
            shard.append(unit)
        return shards

    def result(self, xs: np.ndarray, timings: dict) -> SweepResult:
        """The sweep's arrays in ``(method, point, instance)`` layout."""
        n_m, n_inst, n_pts = len(self.methods), len(self.views), len(self.bounds)

        def layout(a: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(a.reshape(n_m, n_inst, n_pts).transpose(0, 2, 1))

        # Worker completion order is nondeterministic; the ledger's
        # per-unit record is not.
        method_order = {m.name: mi for mi, m in enumerate(self.methods)}
        self.unit_events.sort(key=lambda e: (method_order[e["method"]], e["instance"]))
        return SweepResult(
            xs=xs,
            method_names=[m.name for m in self.methods],
            solved=layout(self.results.solved),
            failure=layout(self.results.failure),
            objective_values=layout(self.results.values),
            objective=self.objective,
            batch_units=self.batch_units,
            timings={k: float(v) for k, v in timings.items()},
            unit_events=self.unit_events,
            period=layout(self.results.period),
            latency=layout(self.results.latency),
        )
