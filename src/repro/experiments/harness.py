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
  (``dp-period``/``dp-latency``), and the heterogeneous searches; one
  that does not cover a shape (say, a finite latency bound on
  ``dp-period``) raises
  :class:`~repro.algorithms.batch.BatchUnsupported` with a
  machine-readable ``reason`` — under ``batch="auto"`` those units
  fall back to per-row solves (counted per reason in telemetry and
  attributed in the ledger), under forced ``batch=True`` the sweep
  raises instead of silently degrading;
* **cached**: each unit's ``(solved, failure, objective_values)``
  arrays are stored under a content hash derived from the method name,
  the instance's raw-array *row digest*
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
  return per-unit arrays — results land back by unit index, so
  parallel output is **bit-identical** to the serial path.  Expensive
  units (by :attr:`Method.cost_hint`) are submitted first so they do
  not straggle at the tail of the pool queue;
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
    caching).
``REPRO_CACHE_BACKEND``
    Storage backend for fresh cache directories (``files`` default,
    ``sqlite`` for fleet-shared stores).  Cache lookups and stores
    happen only in the parent process — worker shards receive columnar
    payloads, never a cache handle — and the SQLite backend drops its
    connection on pickling regardless, so handles never cross a
    process boundary either way.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.algorithms.batch import BatchUnsupported
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

__all__ = ["SweepResult", "run_sweep", "resolve_jobs"]

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
    objective:
        The :data:`repro.solve.OBJECTIVES` entry the sweep carried.
    batch_units:
        How many work units the batched kernels served (0 when no
        method carries one, the shapes were unsupported, batching was
        disabled, or every unit came from cache) — diagnostics only,
        the arrays are bit-identical either way.
    timings:
        Phase wall-clock breakdown of the sweep (``total``,
        ``cache_lookup``, ``batch``, ``solve`` seconds) — structured
        data the run ledger derives its timing records from.
    unit_events:
        One record per work unit, in deterministic ``(method,
        instance)`` order: ``method``, ``instance`` (flat index),
        ``source`` (``"cache"`` / ``"batch"`` / ``"parent"`` /
        ``"worker"``), ``solved`` count, ``seconds`` where measured
        (batch-served units carry the kernel group's amortized share
        and ``batch_group``; cache hits carry ``None``), a
        ``batch_fallback`` reason string
        (:attr:`~repro.algorithms.batch.BatchUnsupported.reason`) for
        units whose kernel refused the shape, and — for search methods
        that report them — per-unit ``probes`` totals and a
        ``converged`` flag.
        This is the ledger's ``per_unit.jsonl``, derived from data
        rather than log scraping.
    """

    xs: np.ndarray
    method_names: list[str]
    solved: np.ndarray
    failure: np.ndarray
    objective_values: "np.ndarray | None" = None
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
        if self.objective_values is None:
            raise ValueError(
                "this sweep recorded no objective values (constructed "
                "without them)"
            )
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
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _unit_problems(
    base: Problem, bounds: Sequence[tuple[float, float]]
) -> list[Problem]:
    """The unit's Problem family: one bounded copy of *base* per point."""
    return [base.with_bounds(max_period=P, max_latency=L) for P, L in bounds]


def _unit_arrays(
    method: Method,
    view: InstanceView,
    bounds: Sequence[tuple[float, float]],
    seed: "int | None",
    objective: str,
    min_reliability: float,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, dict | None]":
    """Run one work unit: one method on one instance over all bounds.

    The single computation shared verbatim by the serial path and the
    worker processes — the reason ``jobs=1`` and ``jobs=N`` agree bit
    for bit.  Materializes the view's chain/platform here (and only
    here): cached units never reach this function.

    Returns ``(solved, failure, objective_values, info)`` where *info*
    aggregates the solve details search methods report — total
    ``probes`` across the unit's points and a ``converged`` flag
    (False when any point's search exhausted its budget) — or ``None``
    for methods that report neither.
    """
    base = view.problem(objective=objective, min_reliability=min_reliability)
    solved = np.zeros(len(bounds), dtype=bool)
    failure = np.ones(len(bounds), dtype=float)
    objective_values = np.empty(len(bounds), dtype=float)
    probes = 0
    converged: "bool | None" = None
    for pi, problem in enumerate(_unit_problems(base, bounds)):
        res = method.solve_problem(
            problem, seed=stable_seed(seed, pi) if method.seeded else None
        )
        solved[pi] = res.feasible
        if res.feasible:
            failure[pi] = res.evaluation.failure_probability
        objective_values[pi] = res.objective_value(objective)
        details = res.details
        if details:
            probes += int(details.get("probes", 0) or 0)
            if "converged" in details:
                converged = bool(details["converged"]) and (converged is not False)
    if probes == 0 and converged is None:
        return solved, failure, objective_values, None
    info: dict = {"probes": probes}
    if converged is not None:
        info["converged"] = converged
    return solved, failure, objective_values, info


def _unpack_batch(out, n_rows: int):
    """Normalize a ``solve_batch`` return to ``(solved, failure, values, infos)``.

    Kernels return three per-row arrays, or four items where the
    fourth is a per-row list of info dicts (the ``probes`` /
    ``converged`` aggregates the per-row path derives from solve
    details) — see :attr:`~repro.experiments.methods.Method
    .solve_batch`.  The three-tuple form means "no info", exactly like
    a per-row unit whose solves report no details.
    """
    if len(out) == 4:
        solved, failure, values, infos = out
        infos = list(infos)
        if len(infos) != n_rows:
            raise ValueError(
                f"solve_batch returned {len(infos)} info entries for "
                f"{n_rows} rows"
            )
    else:
        solved, failure, values = out
        infos = [None] * n_rows
    return solved, failure, values, infos


def _solve_shard_payload(
    method_name: str,
    fingerprint: str,
    shard: dict,
    bounds: Sequence[tuple[float, float]],
    seeds: Sequence["int | None"],
    objective: str,
    min_reliability: float,
    try_batch: bool = True,
    collect_telemetry: bool = False,
) -> "tuple[list[tuple], dict | None]":
    """Worker-side entry point: rebuild a columnar shard and run its units.

    Module-level (picklable) and name-addressed: the worker resolves
    the method from its own registry and reassembles a small
    :class:`~repro.core.ensemble.Ensemble` from the shard's raw rows,
    so no closure — and no per-instance object graph — ever crosses
    the process boundary.  The fingerprint handshake guards spawn-start
    workers: if this process's registry binds *method_name* to
    different code than the parent's (a missing or differently
    re-registered method), raise UnknownMethodError so the parent
    recomputes the shard itself instead of silently using the wrong
    solver.

    Returns ``(unit_results, telemetry_snapshot)``.  Each unit result
    is ``(solved, failure, objective_values, info, source, seconds)``
    — plain lists/floats, so the payload pickles anywhere.  When
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
    ensemble = Ensemble(
        work=shard["work"],
        output=shard["output"],
        speeds=shard["speeds"],
        failure_rates=shard["failure_rates"],
        bandwidth=shard["bandwidth"],
        link_failure_rate=shard["link_failure_rate"],
        max_replication=shard["max_replication"],
    )

    def run_units() -> "list[tuple]":
        if try_batch and method.solve_batch is not None and all(s is None for s in seeds):
            # The batched path covers the whole shard or none of it; a
            # kernel that rejects the shape drops to the per-unit loop.
            t0 = time.perf_counter()
            try:
                with obs.span("sweep.batch", label=method_name):
                    solved, failure, objective_values, infos = _unpack_batch(
                        method.solve_batch(
                            ensemble,
                            bounds,
                            rows=list(range(len(seeds))),
                            objective=objective,
                            min_reliability=min_reliability,
                        ),
                        len(seeds),
                    )
            except BatchUnsupported as exc:
                obs.counter("sweep.batch_unsupported", len(seeds), label=method_name)
                obs.counter("sweep.units.fallback", len(seeds), label=exc.reason)
            else:
                share = (time.perf_counter() - t0) / max(len(seeds), 1)
                return [
                    (
                        [bool(s) for s in solved[j]],
                        [float(f) for f in failure[j]],
                        [float(v) for v in objective_values[j]],
                        infos[j],
                        "batch",
                        share,
                    )
                    for j in range(len(seeds))
                ]
        out = []
        for j, seed in enumerate(seeds):
            t0 = time.perf_counter()
            with obs.span("sweep.unit", label=method_name):
                solved, failure, objective_values, info = _unit_arrays(
                    method, ensemble[j], bounds, seed, objective, min_reliability
                )
            out.append(
                (
                    [bool(s) for s in solved],
                    [float(f) for f in failure],
                    [float(v) for v in objective_values],
                    info,
                    "worker",
                    time.perf_counter() - t0,
                )
            )
        return out

    if not collect_telemetry:
        return run_units(), None
    with obs.collect() as telemetry:
        results = run_units()
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
    batch: "bool | str" = "auto",
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
        ``"auto"`` (default) serves uncached, unseeded units of
        :attr:`~repro.experiments.methods.Method.solve_batch` methods
        through one columnar kernel call per ``(method, ensemble)``
        group, falling back to per-row solves for shapes a kernel
        refuses; ``True`` demands the kernels — any refusal raises
        ``ValueError`` naming each refused cell and its
        :attr:`~repro.algorithms.batch.BatchUnsupported.reason`
        (methods without a kernel still run per-row either way);
        ``False`` forces the per-row path.  Results are bit-identical
        in every mode (cache entries included) — the knob exists for
        diagnostics and the equivalence tests.
        :attr:`SweepResult.batch_units` reports how many units the
        kernels served.
    """
    ensembles, scenario_key = _resolve_instances(instances, seed, n_instances, scenario_key)
    views: list[InstanceView] = [v for e in ensembles for v in e]
    if not views:
        raise ValueError("need at least one instance")
    if not bounds:
        raise ValueError("need at least one sweep point")
    # Every path (kernel, per-row, cache key) sees the same validated
    # floats; a NaN bound must not pass as a sweep of infeasible units.
    bounds = [
        (check_bound("max_period", P), check_bound("max_latency", L))
        for P, L in bounds
    ]
    # Mirror Problem's own validation up front: bases materialize
    # lazily now, so a bad floor must not first surface mid-sweep (or
    # silently land in cache keys).
    from repro.solve.problem import OBJECTIVES

    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; supported: {OBJECTIVES}")
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
    # Capability checks run once per ensemble over the raw columns —
    # no instance materializes just to be validated.
    for method in methods:
        for ensemble in ensembles:
            method.check_ensemble(ensemble, objective=objective)

    if xs is None:
        periods = {p for p, _ in bounds}
        latencies = {l for _, l in bounds}
        if len(periods) >= len(latencies):
            xs_arr = np.array([p for p, _ in bounds], dtype=float)
        else:
            xs_arr = np.array([l for _, l in bounds], dtype=float)
    else:
        if len(xs) != len(bounds):
            raise ValueError("xs must align with bounds")
        xs_arr = np.asarray(xs, dtype=float)

    if batch not in (True, False, "auto"):
        raise ValueError(f"batch must be True, False, or 'auto', got {batch!r}")

    jobs = resolve_jobs(jobs)
    store = resolve_cache(cache)
    t_sweep = time.perf_counter()
    timings: dict[str, float] = {}
    unit_events: list[dict] = []

    def registered(method: Method) -> bool:
        # Registry-resolved methods are the ones addressable by name:
        # they may be cached (keyed by name + implementation
        # fingerprint) and shipped to worker processes.  Ad-hoc Method
        # objects run in the parent, uncached.
        return METHODS.get(method.name) is method

    fingerprints = {m.name: m.fingerprint() for m in methods if registered(m)}

    n_m, n_pts, n_inst = len(methods), len(bounds), len(views)
    solved = np.zeros((n_m, n_pts, n_inst), dtype=bool)
    failure = np.ones((n_m, n_pts, n_inst), dtype=float)
    objective_values = np.full(
        (n_m, n_pts, n_inst), 0.0 if objective == "reliability" else np.inf
    )

    # Resolve cached units first; everything else becomes pending work.
    t0 = time.perf_counter()
    pending: list[tuple[int, int, "int | None", "str | None"]] = []
    with obs.span("sweep.cache_lookup"):
        for mi, method in enumerate(methods):
            for ii, view in enumerate(views):
                unit_seed = _unit_seed(method, view, bounds, objective, min_reliability)
                key = None
                if store is not None and registered(method):
                    key = store.unit_key_for(
                        method.name,
                        view.row_hash,
                        bounds,
                        seed=unit_seed,
                        fingerprint=fingerprints[method.name],
                        scenario=scenario_key,
                        objective=objective,
                        min_reliability=min_reliability,
                    )
                    hit = store.get_record(key, method_name=method.name, n_points=n_pts)
                    if hit is not None:
                        unit_solved, unit_failure, unit_values, unit_info = unit_arrays(
                            hit, n_pts
                        )
                        solved[mi, :, ii] = unit_solved
                        failure[mi, :, ii] = unit_failure
                        if unit_values is not None:
                            objective_values[mi, :, ii] = unit_values
                            event = {
                                "method": method.name,
                                "instance": ii,
                                "source": "cache",
                                "solved": int(unit_solved.sum()),
                                "seconds": None,
                            }
                            if unit_info:
                                event.update(unit_info)
                            unit_events.append(event)
                            obs.counter("sweep.units.cached", label=method.name)
                            continue
                        # An entry without objective values (stored
                        # through the bare put() API) cannot serve the
                        # new aggregations; recompute it below.
                pending.append((mi, ii, unit_seed, key))
    timings["cache_lookup"] = time.perf_counter() - t0

    # The units whose batch kernel refused the shape: their per-row
    # recomputation is a *fallback*, and the ledger says why (the
    # BatchUnsupported reason class).  Refused groups are remembered so
    # worker shards skip the doomed kernel retry.
    fallback_units: dict[tuple[int, int], str] = {}
    refused: list[tuple[str, str, int]] = []
    refused_groups: set[tuple[int, int]] = set()

    def finish(mi: int, ii: int, key: "str | None",
               unit_solved: np.ndarray, unit_failure: np.ndarray,
               unit_values: np.ndarray, info: "dict | None" = None,
               source: str = "parent", seconds: "float | None" = None,
               batch_group: "int | None" = None) -> None:
        solved[mi, :, ii] = unit_solved
        failure[mi, :, ii] = unit_failure
        objective_values[mi, :, ii] = unit_values
        if store is not None and key is not None:
            store.put_record(key, unit_record(unit_solved, unit_failure, unit_values,
                                              method_name=methods[mi].name, info=info))
        event = {
            "method": methods[mi].name,
            "instance": ii,
            "source": source,
            "solved": int(np.asarray(unit_solved).sum()),
            "seconds": seconds,
        }
        if batch_group is not None:
            event["batch_group"] = batch_group
        reason = fallback_units.get((mi, ii))
        if reason is not None:
            event["batch_fallback"] = reason
        if info:
            event.update(info)
        unit_events.append(event)
        obs.counter(f"sweep.units.{source}", label=methods[mi].name)

    def run_local(unit: tuple) -> None:
        mi, ii, unit_seed, key = unit
        t0 = time.perf_counter()
        with obs.span("sweep.unit", label=methods[mi].name):
            arrays = _unit_arrays(
                methods[mi], views[ii], bounds, unit_seed, objective, min_reliability
            )
        finish(mi, ii, key, *arrays, seconds=time.perf_counter() - t0)

    # Flat unit index -> (owning ensemble, row within it).
    ensemble_of: list[int] = []
    row_of: list[int] = []
    for ei, ensemble in enumerate(ensembles):
        ensemble_of.extend([ei] * len(ensemble))
        row_of.extend(range(len(ensemble)))

    # Batched path: solve whole (method, ensemble) groups in one
    # kernel call.  Only unseeded units qualify (per-unit seeds are a
    # per-row concept), and a kernel that rejects the shape leaves its
    # group pending for the per-row machinery below.
    batch_units = 0
    t0 = time.perf_counter()
    if batch in (True, "auto"):
        groups: dict[tuple[int, int], list[tuple]] = {}
        for unit in pending:
            mi, ii, unit_seed, _key = unit
            if unit_seed is None and methods[mi].solve_batch is not None:
                groups.setdefault((mi, ensemble_of[ii]), []).append(unit)
        served: set[tuple] = set()
        for (mi, ei), units in groups.items():
            t_group = time.perf_counter()
            try:
                with obs.span("sweep.batch", label=methods[mi].name):
                    (group_solved, group_failure, group_values,
                     group_infos) = _unpack_batch(
                        methods[mi].solve_batch(
                            ensembles[ei],
                            bounds,
                            rows=[row_of[u[1]] for u in units],
                            objective=objective,
                            min_reliability=min_reliability,
                        ),
                        len(units),
                    )
            except BatchUnsupported as exc:
                # Attribution: these units now fall back to the
                # per-row machinery below, and the ledger records why.
                for u in units:
                    fallback_units[(u[0], u[1])] = exc.reason
                refused.append((methods[mi].name, exc.reason, len(units)))
                refused_groups.add((mi, ei))
                obs.counter("sweep.batch_unsupported", len(units),
                            label=methods[mi].name)
                obs.counter("sweep.units.fallback", len(units),
                            label=exc.reason)
                continue
            share = (time.perf_counter() - t_group) / max(len(units), 1)
            for r, unit in enumerate(units):
                finish(
                    unit[0], unit[1], unit[3],
                    np.asarray(group_solved[r], dtype=bool),
                    np.asarray(group_failure[r], dtype=float),
                    np.asarray(group_values[r], dtype=float),
                    info=group_infos[r],
                    source="batch", seconds=share, batch_group=len(units),
                )
                served.add(unit)
            batch_units += len(units)
        if refused and batch is True:
            cells = "; ".join(
                f"{name} ({n} units): {reason}" for name, reason, n in refused
            )
            raise ValueError(
                "batch=True demands the kernels, but some refused their "
                f"shapes — {cells}. Use batch='auto' to let uncovered "
                "units fall back to per-row solves."
            )
        if served:
            pending = [u for u in pending if u not in served]
    timings["batch"] = time.perf_counter() - t0

    # Expensive methods first: with a shared pool, a 10x-cost ILP unit
    # submitted last would serialize the tail of the run.
    pending.sort(key=lambda u: (-methods[u[0]].cost_hint, u[0], u[1]))

    # Only registry-resolvable methods can be addressed by name in a
    # worker; ad-hoc Method objects fall back to the parent process.
    if jobs > 1 and len(pending) > 1:
        remote = [u for u in pending if registered(methods[u[0]])]
    else:
        remote = []
    remote_set = set(remote)
    local = [u for u in pending if u not in remote_set]

    t0 = time.perf_counter()
    if not remote:
        for unit in local:
            run_local(unit)
    else:
        # Group the remote units into columnar shards: one payload
        # ships several instances' raw rows for one (method, ensemble)
        # pair.
        shard_size = max(1, min(_SHARD_MAX, -(-len(remote) // (jobs * _SHARD_WAVES))))
        shards: list[list[tuple]] = []
        open_shards: dict[tuple[int, int], list[tuple]] = {}
        for unit in remote:
            mi, ii = unit[0], unit[1]
            group = (mi, ensemble_of[ii])
            shard = open_shards.get(group)
            if shard is None or len(shard) >= shard_size:
                shard = []
                shards.append(shard)
                open_shards[group] = shard
            shard.append(unit)

        collect_telemetry = obs.active() is not None
        with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
            futures = {}
            for shard in shards:
                mi = shard[0][0]
                ei = ensemble_of[shard[0][1]]
                ensemble = ensembles[ei]
                fut = pool.submit(
                    _solve_shard_payload,
                    methods[mi].name,
                    fingerprints[methods[mi].name],
                    _shard_payload(ensemble, [row_of[u[1]] for u in shard]),
                    bounds,
                    [u[2] for u in shard],
                    objective,
                    min_reliability,
                    # A group the parent's kernel already refused would
                    # refuse again in the worker — skip the retry (and
                    # the double-counted fallback telemetry).
                    batch in (True, "auto") and (mi, ei) not in refused_groups,
                    collect_telemetry,
                )
                futures[fut] = shard
            # The parent works through its own (unpicklable) units while
            # the pool churns, then drains the futures.
            for unit in local:
                run_local(unit)
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for fut in done:
                    shard = futures[fut]
                    try:
                        results, worker_telemetry = fut.result()
                    except UnknownMethodError:
                        # Spawn-start workers re-import the registry
                        # and may miss (or re-bind) methods registered
                        # at runtime; redo the shard here rather than
                        # fail the sweep or run the wrong code.
                        for unit in shard:
                            run_local(unit)
                        continue
                    active = obs.active()
                    if active is not None:
                        active.merge(worker_telemetry)
                    for (mi, ii, _unit_seed_, key), unit_result in zip(shard, results):
                        (unit_solved, unit_failure, unit_values,
                         unit_info, source, unit_seconds) = unit_result
                        if source == "batch":
                            batch_units += 1
                        finish(mi, ii, key,
                               np.asarray(unit_solved, dtype=bool),
                               np.asarray(unit_failure, dtype=float),
                               np.asarray(unit_values, dtype=float),
                               info=unit_info,
                               source="batch" if source == "batch" else "worker",
                               seconds=unit_seconds,
                               batch_group=len(shard) if source == "batch" else None)
    timings["solve"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_sweep

    # Worker completion order is nondeterministic; the ledger's
    # per-unit record is not.
    method_order = {m.name: mi for mi, m in enumerate(methods)}
    unit_events.sort(key=lambda e: (method_order[e["method"]], e["instance"]))

    return SweepResult(
        xs=xs_arr,
        method_names=[m.name for m in methods],
        solved=solved,
        failure=failure,
        objective_values=objective_values,
        objective=objective,
        batch_units=batch_units,
        timings={k: float(v) for k, v in timings.items()},
        unit_events=unit_events,
    )
