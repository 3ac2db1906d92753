"""Traced run of one workload: the layers of `repro scenario run`, timed in-process.

`run.py` starts this script as a subprocess with a JSON config (see
`workload_config` in run.py) and reads back one JSON result.  The script
repeats what `repro scenario run ... --grid auto` does, layer by layer,
through the package's public functions, and times each call from here.
It adds no spans to the package; it reads `SweepResult.timings`,
`SweepResult.unit_events`, `ResultCache.stats()` and a `repro.obs`
collector as return values.

Two legs run in one process:

* the cold leg, on an empty cache: import, planning, generation, grid
  probes, the sweep and the ledger write, exactly as the CLI orders them;
* the warm leg, on the cache the cold leg filled: grid probes and sweep
  again, which must be all cache hits.

The cold leg ends at `cold_end_epoch` (`time.time()`), so the parent can
time it from the moment it spawned this process, interpreter start
included.

Usage (normally only through run.py)::

    PYTHONPATH=src python3 perfbench/traced.py CONFIG.json OUT.json
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import time

#: Methods whose per-row solve time is reported on its own.
ROWSOLVE_METHODS = ("pareto-dp", "heur-l-paper", "heur-p-paper")


def series_of(sweep) -> dict:
    """The result arrays `repro scenario run` writes as manifest `series`."""
    import numpy as np

    return {
        name: {
            "counts": [int(c) for c in sweep.counts(name)],
            "avg_failure": [
                None if np.isnan(v) else float(v)
                for v in sweep.average_failure(name, rule="per-method")
            ],
            "objective_quantiles": {
                f"p{round(q * 100)}": [float(v) if np.isfinite(v) else None for v in row]
                for q, row in zip((0.1, 0.5, 0.9), sweep.objective_quantiles(name))
            },
        }
        for name in sweep.method_names
    }


def series_digest(series: dict) -> str:
    """Hash of the counts, failure and objective arrays per method and point.

    Reads only those three fields, so a manifest that gains other
    fields keeps its digest.
    """
    canon = {
        name: [rec["counts"], rec["avg_failure"], rec["objective_quantiles"]]
        for name, rec in series.items()
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def _timed_cache_class(ResultCache):
    """A `ResultCache` whose lookups and writes time themselves."""

    class TimedCache(ResultCache):
        def __init__(self, root):
            super().__init__(root)
            self.lookup_s = 0.0
            self.lookups = 0
            self.write_s = 0.0
            self.writes = 0

        def get_record(self, key, method_name=None, n_points=None):
            t0 = time.perf_counter()
            try:
                return super().get_record(key, method_name=method_name, n_points=n_points)
            finally:
                self.lookup_s += time.perf_counter() - t0
                self.lookups += 1

        def put_record(self, key, record):
            t0 = time.perf_counter()
            try:
                super().put_record(key, record)
            finally:
                self.write_s += time.perf_counter() - t0
                self.writes += 1

        def io_seconds(self) -> float:
            return self.lookup_s + self.write_s

    return TimedCache


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def traced_run(cfg: dict) -> dict:
    """Run one workload's cold and warm legs; return layer timings and digests."""
    layers: dict[str, float] = {}

    n_modules = len(sys.modules)
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI's own import chain)

    layers["import.cli_s"] = time.perf_counter() - t0
    layers["import.modules"] = len(sys.modules) - n_modules
    layers["import.scipy_loaded"] = int("scipy" in sys.modules)

    # What `scenario run` imports lazily once the CLI has parsed its
    # arguments (figures and report render its tables).
    t0 = time.perf_counter()
    import repro.experiments.figures  # noqa: F401
    import repro.experiments.report  # noqa: F401
    from repro.experiments.cache import ResultCache
    from repro.experiments.harness import run_sweep
    from repro.obs import run_id_for, write_run
    from repro.obs import telemetry as obs
    from repro.obs.ledger import write_atomic
    from repro.scenarios import generate_ensembles, get_scenario, scenario_hash
    from repro.solve import Planner, derive_bounds_grid, encode_bound

    layers["import.command_s"] = time.perf_counter() - t0

    TimedCache = _timed_cache_class(ResultCache)
    work = pathlib.Path(cfg["work_dir"])
    seed = cfg["seed"]
    objective = cfg["objective"]
    floor = cfg["min_reliability"]
    jobs = cfg["jobs"]
    collector = obs.Telemetry()

    entry = get_scenario(cfg["scenario"])
    spec = entry.spec.with_(n_instances=cfg["n_instances"])

    t0 = time.perf_counter()
    with obs.collect(collector):
        plan = Planner().plan(
            entry if entry.spec == spec else spec, objective=objective
        )
    methods = plan.methods()
    layers["planner.plan_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    spec_hash = scenario_hash(spec)
    instances = generate_ensembles(spec, seed=seed)
    layers["scenarios.generate_s"] = time.perf_counter() - t0

    def leg(cache):
        """Grid probes then the sweep, as `scenario run --grid auto` does."""
        t0 = time.perf_counter()
        with obs.collect(collector):
            grid = derive_bounds_grid(
                instances, n_points=cfg["grid_points"], seed=seed, cache=cache
            )
        grid_s = time.perf_counter() - t0
        io_before = cache.io_seconds()
        t0 = time.perf_counter()
        with obs.collect(collector):
            sweep = run_sweep(
                instances, methods, grid.sweep("period"), xs=grid.xs("period"),
                jobs=jobs, cache=cache, scenario_key=spec_hash,
                objective=objective, min_reliability=floor,
            )
        sweep_s = time.perf_counter() - t0
        return grid, grid_s, sweep, sweep_s, cache.io_seconds() - io_before

    cold = TimedCache(work / "cache")
    probes_before = _probes_solved(collector)
    grid, layers["grid.cold_s"], sweep, layers["sweep.cold_s"], sweep_cache_s = leg(cold)
    probes = _probes_solved(collector) - probes_before
    layers["grid.probes_solved"] = probes
    layers["grid.probe_ms"] = 1000.0 * layers["grid.cold_s"] / probes if probes else 0.0
    series = series_of(sweep)

    # The same manifest fields `scenario run` writes, so the ledger
    # write handles as many bytes.
    t0 = time.perf_counter()
    timestamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    manifest = {
        "command": "scenario-run",
        "timestamp": timestamp,
        "scenario": {"name": spec.name, "spec_hash": spec_hash,
                     "describe": entry.describe()},
        "seed": seed,
        "n_instances": sum(len(e) for e in instances),
        "objective": objective,
        "min_reliability": floor,
        "plan": plan.describe(),
        "grid": {"mode": "auto", "axis": "period", **grid.describe()},
        "points": [[encode_bound(P), encode_bound(L)] for P, L in grid.sweep("period")],
        "series": series,
        "seconds": {
            "generate": round(layers["scenarios.generate_s"], 3),
            "grid": round(layers["grid.cold_s"], 3),
            "sweep": round(layers["sweep.cold_s"], 3),
        },
        "batch_units": sweep.batch_units,
        "timings": {k: round(v, 6) for k, v in sweep.timings.items()},
        "cache": cold.stats(),
        "telemetry": collector.snapshot(),
    }
    run_id = run_id_for(
        {"command": "scenario-run", "scenario": spec_hash, "seed": seed}, timestamp
    )
    run_dir = write_run(work / "runs", run_id, manifest, per_unit=sweep.unit_events)
    manifest_path = work / "manifest.json"
    write_atomic(manifest_path, json.dumps({**manifest, "run_id": run_id}, indent=2) + "\n")
    layers["ledger.write_s"] = time.perf_counter() - t0
    layers["ledger.bytes"] = _dir_bytes(run_dir) + manifest_path.stat().st_size
    cold_end_epoch = time.time()

    events = sweep.unit_events
    batch = [e for e in events if e["source"] == "batch"]
    rows = [e for e in events if e["source"] in ("parent", "worker")]
    workers = [e for e in events if e["source"] == "worker"]
    uncached = [e for e in events if e["source"] != "cache"]
    layers["kernel.units"] = len(batch)
    layers["kernel.s"] = sum(e["seconds"] for e in batch)
    layers["kernel.share"] = len(batch) / len(uncached) if uncached else 0.0
    layers["kernel.fallback_units"] = sum(1 for e in events if "batch_fallback" in e)
    layers["rowsolve.units"] = len(rows)
    layers["rowsolve.s"] = sum(e["seconds"] for e in rows)
    for name in ROWSOLVE_METHODS:
        layers[f"rowsolve.{name}.s"] = sum(e["seconds"] for e in rows if e["method"] == name)
    layers["pool.worker_units"] = len(workers)
    layers["pool.busy_s"] = sum(e["seconds"] for e in workers)
    solve_wall = sweep.timings.get("solve", 0.0)
    layers["pool.efficiency"] = (
        layers["pool.busy_s"] / (jobs * solve_wall) if workers and solve_wall else 0.0
    )
    # Worker solves overlap: count their seconds once per job slot.
    layers["rowsolve.wall_s"] = layers["rowsolve.s"] - layers["pool.busy_s"] * (1 - 1 / jobs)
    layers["sweep.overhead_s"] = (
        layers["sweep.cold_s"] - sweep_cache_s - layers["kernel.s"] - layers["rowsolve.wall_s"]
    )
    layers["cache.writes"] = cold.writes
    layers["cache.write_s"] = cold.write_s
    layers["cache.write_us"] = 1e6 * cold.write_s / cold.writes if cold.writes else 0.0

    warm = TimedCache(work / "cache")
    _, layers["grid.warm_s"], warm_sweep, layers["sweep.warm_s"], _ = leg(warm)
    warm_stats = warm.stats()
    layers["cache.lookups"] = warm.lookups
    layers["cache.lookup_s"] = warm.lookup_s
    layers["cache.lookup_us"] = 1e6 * warm.lookup_s / warm.lookups if warm.lookups else 0.0
    layers["cache.hit_rate"] = warm_stats["hit_rate"] or 0.0
    layers["cache.corrupt"] = cold.corrupt + warm.corrupt

    return {
        "layers": layers,
        "cold_end_epoch": cold_end_epoch,
        "cold_digest": series_digest(series),
        "warm_digest": series_digest(series_of(warm_sweep)),
        "warm_misses": warm_stats["misses"],
    }


def _probes_solved(collector) -> int:
    return sum(
        v for k, v in collector.counters.items() if k.startswith("grid.probe.solved")
    )


def main(argv: list[str]) -> int:
    result = traced_run(json.loads(pathlib.Path(argv[1]).read_text()))
    out = pathlib.Path(argv[2])
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
