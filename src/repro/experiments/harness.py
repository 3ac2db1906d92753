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
  all of an ensemble's uncached units in one columnar call
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
  fields, and — for sweeps materialized from a
  declarative scenario (:mod:`repro.scenarios`) — the scenario spec's
  content hash (:mod:`repro.experiments.cache`).  A warm sweep
  therefore touches only array bytes: no objects, no JSON;
* **parallel**: with ``jobs > 1``, uncached per-row units fan out over
  a :class:`concurrent.futures.ProcessPoolExecutor`, **one unit per
  task**: the parent builds the unit's base
  :class:`~repro.solve.problem.Problem` and submits it with the method
  *name* and fingerprint (closures do not pickle; registry names and
  Problems do), and the worker runs the same single-unit solve as the
  parent — results land back by unit, so parallel output is
  **bit-identical** to the serial path.  Workers return results only:
  telemetry is collected in the parent, and a worker unit's seconds
  travel in its unit event.  Expensive
  units (by :attr:`Method.cost_hint`) are submitted first so they do
  not straggle at the tail of the pool queue.  A worker that dies
  (killed, out of memory) breaks the pool; the parent then recomputes
  every unit left without a result and records it as ``"recovered"``;
* **recorded**: kernels, per-row solves, worker units and cache hits
  all yield :class:`~repro.algorithms.result.UnitResults` rows, and one
  ``finish`` step writes each into the sweep arrays, the cache and
  the ledger's unit events.

Environment
-----------
``REPRO_CACHE_DIR``
    Default cache directory when ``cache`` is ``None`` (unset = no
    caching; :func:`repro.experiments.cache.resolve_cache`).  Cache
    lookups and stores happen only in the parent process; workers
    receive a unit's Problem, never a cache.  ``jobs`` has no
    environment fallback: ``None`` means 1 (serial).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.algorithms.result import UnitResults
from repro.core.ensemble import Ensemble, ensembles_from_instances
from repro.experiments.cache import ResultCache, resolve_cache, unit_record
from repro.experiments.methods import METHODS, Method, UnknownMethodError, get_method
from repro.obs import telemetry as obs
from repro.solve.grid import linear_quantiles
from repro.solve.problem import Problem
from repro.util.validation import check_bound, check_min_reliability

__all__ = ["SweepResult", "run_sweep", "resolve_jobs"]


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``jobs`` argument: ``None`` means 1 (serial)."""
    if jobs is None:
        return 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


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

    def average_failure(self, method: str, rule: str = "common") -> np.ndarray:
        """Average failure probability per sweep point (Fig. 7 style).

        ``rule="common"`` averages over instances solved by both
        Section 7 heuristics, ``heur-l`` and ``heur-p``, when the sweep
        ran them (the paper's hom rule); ``rule="per-method"`` over
        instances solved by *method* itself (the het rule).  Points with
        an empty averaging set yield NaN (plotted as gaps).
        """
        i = self._idx(method)
        if rule == "common":
            mask = np.ones(self.solved.shape[1:], dtype=bool)
            for h in ("heur-l", "heur-p"):
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

    def objective_quantiles(self, method: str) -> np.ndarray:
        """Per-point p10/p50/p90 of the achieved objective value.

        Returns a ``(3, n_points)`` array of quantiles of
        :attr:`objective_values` over the instances *method* solved at
        each point (NaN where it solved none) — the spread the
        converse-objective curves plot alongside solved counts.
        """
        i = self._idx(method)
        mask = self.solved[i]
        values = self.objective_values[i]
        out = np.full((3, mask.shape[0]), np.nan)
        for pt in range(mask.shape[0]):
            picked = values[pt, mask[pt]]
            if picked.size:
                out[:, pt] = linear_quantiles(picked, (0.1, 0.5, 0.9))
        return out

    def _idx(self, method: str) -> int:
        try:
            return self.method_names.index(method)
        except ValueError:
            raise UnknownMethodError(
                f"method {method!r} not in sweep; curves available: "
                f"{self.method_names}"
            ) from None


def _solve_unit(
    method: Method,
    base: Problem,
    bounds: Sequence[tuple[float, float]],
    objective: str,
) -> "tuple[UnitResults, float]":
    """One work unit: *method* on *base* at every bound point.

    The single computation shared verbatim by the parent and the
    worker processes — the reason ``jobs=1`` and ``jobs=N`` agree bit
    for bit.  Cached and kernel-served units never reach it.

    Returns a one-row :class:`~repro.algorithms.result.UnitResults`
    and the unit's wall-clock seconds.  The row's info aggregates the
    solve details search methods report — total ``probes`` across the
    unit's points and a ``converged`` flag (False when any point's
    search exhausted its budget) — and stays ``None`` for methods that
    report neither.
    """
    t0 = time.perf_counter()
    out = UnitResults.empty(1, len(bounds), objective)
    probes = 0
    converged: "bool | None" = None
    for pi, (P, L) in enumerate(bounds):
        res = method.solve(base.with_bounds(max_period=P, max_latency=L))
        out.solved[0, pi] = res.feasible
        if res.feasible:
            ev = res.evaluation
            out.failure[0, pi] = ev.failure_probability
            out.period[0, pi] = ev.worst_case_period
            out.latency[0, pi] = ev.worst_case_latency
        out.values[0, pi] = res.objective_value(objective)
        details = res.details
        if details:
            probes += int(details.get("probes", 0) or 0)
            if "converged" in details:
                converged = bool(details["converged"]) and (converged is not False)
    if probes or converged is not None:
        out.infos[0] = {"probes": probes}
        if converged is not None:
            out.infos[0]["converged"] = converged
    return out, time.perf_counter() - t0


def _solve_remote(
    method_name: str,
    fingerprint: str,
    base: Problem,
    bounds: Sequence[tuple[float, float]],
    objective: str,
) -> "tuple[UnitResults, float]":
    """Worker-side entry point: :func:`_solve_unit` by method name.

    Module-level (picklable) and name-addressed: the worker resolves
    the method from its own registry, so no closure crosses the
    process boundary.  The fingerprint handshake guards spawn-start
    workers: if this process's registry binds *method_name* to
    different code than the parent's (a missing or differently
    re-registered method), raise UnknownMethodError so the parent
    recomputes the unit itself instead of silently using the wrong
    solver.
    """
    method = get_method(method_name)
    if method.fingerprint() != fingerprint:
        raise UnknownMethodError(
            f"method {method_name!r} resolves to different code in this "
            f"worker than in the parent process"
        )
    return _solve_unit(method, base, bounds, objective)


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
    their heterogeneous side (their rows); sweep
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
        Worker processes for the fan-out; ``None`` means 1 (serial).
        Results are identical for any value.
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
        ``True`` (default) serves uncached units of
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
        # Flat instance index -> (owning ensemble, row within it).
        self.ensemble_of: list[int] = []
        self.row_of: list[int] = []
        for ei, ensemble in enumerate(ensembles):
            self.ensemble_of.extend([ei] * len(ensemble))
            self.row_of.extend(range(len(ensemble)))
        self.fingerprints = {
            m.name: m.fingerprint() for m in self.methods if METHODS.get(m.name) is m
        }
        # Row mi * n_instances + ii holds unit (mi, ii).
        self.results = UnitResults.empty(
            len(self.methods) * len(self.row_of), len(bounds), objective
        )
        self.unit_events: list[dict] = []
        self.batch_units = 0

    def registered(self, method: Method) -> bool:
        """Registry-resolved methods with a fingerprint are the ones
        addressable by name: they may be cached (keyed by name +
        implementation fingerprint) and shipped to worker processes.
        Ad-hoc Method objects, and methods whose code has no source
        file, run in the parent, uncached."""
        return METHODS.get(method.name) is method and self.fingerprints[method.name] is not None

    def finish(self, unit: _Unit, results: UnitResults, r: int, source: str,
               seconds: "float | None" = None,
               batch_group: "int | None" = None) -> None:
        """Record row *r* of *results* as *unit*'s outcome: the sweep
        arrays, a cache entry (unless it came from cache), the ledger
        event and the ``sweep.units.*`` counter."""
        method = self.methods[unit.mi]
        self.results.set_row(unit.mi * len(self.row_of) + unit.ii, results, r)
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
                for ii, (ei, row) in enumerate(zip(self.ensemble_of, self.row_of)):
                    unit = _Unit(mi, ii, None)
                    if self.store is not None and self.registered(method):
                        unit = unit._replace(key=self.store.unit_key_for(
                            method.name,
                            self.ensembles[ei].row_hash(row),
                            self.bounds,
                            fingerprint=self.fingerprints[method.name],
                            scenario=self.scenario_key,
                            objective=self.objective,
                            min_reliability=self.min_reliability,
                        ))
                        hit = self.store.get_record(
                            unit.key, method_name=method.name, n_points=n_pts
                        )
                        if hit is not None:
                            self.finish(unit, hit, 0, "cache")
                            continue
                    pending.append(unit)
        return pending

    def run_kernels(self, pending: "list[_Unit]") -> "list[_Unit]":
        """Serve whole ``(method, ensemble)`` groups in one kernel call.

        Returns the units left for per-row solves.
        """
        groups: dict[tuple[int, int], list[_Unit]] = {}
        rest: list[_Unit] = []
        for unit in pending:
            if self.methods[unit.mi].solve_batch is not None:
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

    def base(self, unit: _Unit) -> Problem:
        """The unit's unbounded Problem; materializes its row."""
        ensemble = self.ensembles[self.ensemble_of[unit.ii]]
        row = self.row_of[unit.ii]
        return Problem(
            ensemble.chain(row),
            ensemble.platform(row),
            objective=self.objective,
            min_reliability=self.min_reliability,
        )

    def run_local(self, unit: _Unit, source: str = "parent") -> None:
        results, seconds = _solve_unit(
            self.methods[unit.mi], self.base(unit), self.bounds, self.objective
        )
        self.finish(unit, results, 0, source, seconds)

    def run_rows(self, pending: "list[_Unit]", jobs: int) -> None:
        """Solve the pending units per row: in the parent, or one unit
        per task in a process pool."""
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

        with ProcessPoolExecutor(max_workers=min(jobs, len(remote))) as pool:
            futures = {}
            for unit in remote:
                name = self.methods[unit.mi].name
                fut = pool.submit(_solve_remote, name, self.fingerprints[name],
                                  self.base(unit), self.bounds, self.objective)
                futures[fut] = unit
            # The parent works through its own (unpicklable) units while
            # the pool churns, then drains the futures.
            for unit in local:
                self.run_local(unit)
            for fut in as_completed(futures):
                unit = futures[fut]
                try:
                    results, seconds = fut.result()
                except UnknownMethodError:
                    # Spawn-start workers re-import the registry and may
                    # miss (or re-bind) methods registered at runtime;
                    # redo the unit here rather than fail the sweep or
                    # run the wrong code.
                    self.run_local(unit)
                    continue
                except BrokenProcessPool:
                    # A worker died and the pool failed every unit still
                    # without a result; recompute each here.
                    self.run_local(unit, "recovered")
                    continue
                self.finish(unit, results, 0, "worker", seconds)

    def result(self, xs: np.ndarray, timings: dict) -> SweepResult:
        """The sweep's arrays in ``(method, point, instance)`` layout."""
        n_m, n_inst, n_pts = len(self.methods), len(self.row_of), len(self.bounds)

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
