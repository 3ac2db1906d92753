"""Throughput of the batched solving kernels vs the per-row loop.

The batched layer (:mod:`repro.algorithms.batch` and its converse
siblings :mod:`repro.algorithms.batch_dp` /
:mod:`repro.algorithms.batch_search`) evaluates a solve cell across
every row of a columnar ensemble in one kernel call — shared interval
enumeration, batched log-reliability arithmetic, vectorized
feasibility masks, lane-vectorized DP tables, lockstep bisection —
where the per-row path runs one object-level solve per instance.
This bench runs the same cold sweeps through both paths and checks the
contract that makes each speedup safe to take: the two runs are
**bit-identical** (solved flags, failure probabilities, objective
values, and — where caches are in play — cache entries under the same
keys).

Metrics (per kernel cell; the acceptance floor is 5x):

* ``batch_speedup`` — heur-l on homogeneous rows, cold caches (the
  original headline cell);
* ``floor_speedup`` — heur-l under a reliability floor, kernel-level
  (``run_sweep`` rejects floored *reliability* sweeps, so this cell is
  measured against the ``heuristic_best`` loop directly);
* ``batch_dp_period_speedup`` — the lane-vectorized Algorithm 2 DP
  (``dp-period``) vs the per-row converse binary search;
* ``het_batch_speedup`` — heur-l on heterogeneous rows (lockstep
  Section 7.2 allocation) vs the per-row loop;
* ``pareto_dp_speedup`` — the pareto-dp kernel (one lane-vectorized
  frontier DP over every row and sweep point, lanes in chunks) vs the
  per-row loop of scalar frontier DPs, on the derived 8-point period
  grid;
* ``batched_units_per_s`` / ``looped_units_per_s`` — informational
  absolute throughput of the headline cell.

Dual entry points: a pytest-benchmark test and a ``--json`` script mode
for the benchmark-regression gate::

    PYTHONPATH=src python benchmarks/bench_batch_solve.py --json out.json
"""

import math
import tempfile
import time

import numpy as np

from repro.algorithms import batch_heuristic_best, heuristic_best
from repro.experiments import ResultCache, get_method, run_sweep
from repro.scenarios import generate_ensemble
from repro.solve import derive_bounds_grid
from repro.util.logrel import from_reliability

try:
    from benchmarks.conftest import emit
except ImportError:  # script mode: no pytest plumbing to bypass
    def emit(*parts):
        print(" ".join(str(p) for p in parts))

N_INSTANCES = 1000
BOUNDS = [(150.0, 750.0), (250.0, 750.0), (400.0, 750.0)]
METHOD = "heur-l"

#: The converse/floor/het cells run smaller ensembles: their per-row
#: legs are far more expensive than a heur-l solve, and the speedup
#: ratio is stable well before 1000 rows.
FLOOR_N = 400
DP_N = 300
HET_N = 300
PERIOD_BOUNDS = [(150.0, math.inf), (250.0, math.inf), (400.0, math.inf)]
#: The pareto-dp cell: the hom-reliability workload's shape (30 rows,
#: `--grid auto` period axis with 8 points).
PARETO_N = 30
PARETO_POINTS = 8

#: Regression-gate metric names (see run_batch_solve_bench).
BENCH_NAME = "bench_batch_solve"


def _sweep_pair_seconds(ensemble, method_name, bounds, objective,
                        n_units) -> "tuple[float, float]":
    """Time the same cacheless cold sweep looped then batched, and
    assert the bit-identity contract."""
    methods = [get_method(method_name)]
    t0 = time.perf_counter()
    looped = run_sweep(ensemble, methods, bounds, batch=False,
                       objective=objective)
    looped_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = run_sweep(ensemble, methods, bounds, objective=objective)
    batched_seconds = time.perf_counter() - t0
    assert looped.batch_units == 0 and batched.batch_units == n_units
    assert np.array_equal(looped.solved, batched.solved)
    assert np.array_equal(looped.failure, batched.failure)
    assert np.array_equal(looped.objective_values, batched.objective_values)
    return looped_seconds, batched_seconds


def _floor_cell_seconds() -> "tuple[float, float]":
    """The floored heuristic cell, measured at kernel level."""
    ensemble = generate_ensemble("section8-hom", n_instances=FLOOR_N, seed=17)
    floor = 0.5
    t0 = time.perf_counter()
    out = batch_heuristic_best(
        ensemble, BOUNDS, which=METHOD, min_reliability=floor
    )
    solved, failure = out.solved, out.failure
    batched_seconds = time.perf_counter() - t0
    ell = from_reliability(floor)
    t0 = time.perf_counter()
    for i, (chain, platform) in enumerate(ensemble):
        for pt, (P, L) in enumerate(BOUNDS):
            res = heuristic_best(
                chain, platform, max_period=P, max_latency=L,
                which=METHOD, selection="feasible-best",
                min_log_reliability=ell,
            )
            assert bool(solved[i, pt]) == res.feasible
            assert float(failure[i, pt]) == res.failure_probability
    looped_seconds = time.perf_counter() - t0
    return looped_seconds, batched_seconds


def run_batch_solve_bench() -> dict:
    """Cold-sweep each kernel cell looped and batched; return metrics."""
    ensemble = generate_ensemble("section8-hom", n_instances=N_INSTANCES, seed=17)
    methods = [get_method(METHOD)]
    n_units = N_INSTANCES

    with tempfile.TemporaryDirectory() as looped_dir, \
            tempfile.TemporaryDirectory() as batched_dir:
        looped_cache = ResultCache(looped_dir)
        t0 = time.perf_counter()
        looped = run_sweep(ensemble, methods, BOUNDS, cache=looped_cache, batch=False)
        looped_seconds = time.perf_counter() - t0
        assert looped.batch_units == 0 and looped_cache.puts == n_units

        batched_cache = ResultCache(batched_dir)
        t0 = time.perf_counter()
        batched = run_sweep(ensemble, methods, BOUNDS, cache=batched_cache)
        batched_seconds = time.perf_counter() - t0
        assert batched.batch_units == n_units and batched_cache.puts == n_units

        # The contract that makes the speedup safe to take: counts,
        # failures, objective values, and cache keys all bit-identical.
        assert np.array_equal(looped.solved, batched.solved)
        assert np.array_equal(looped.failure, batched.failure)
        assert np.array_equal(looped.objective_values, batched.objective_values)
        looped_keys = {p.name for p in looped_cache.root.rglob("*.json")}
        batched_keys = {p.name for p in batched_cache.root.rglob("*.json")}
        assert looped_keys == batched_keys and len(looped_keys) == n_units

    floor_looped, floor_batched = _floor_cell_seconds()
    dp_looped, dp_batched = _sweep_pair_seconds(
        generate_ensemble("section8-hom", n_instances=DP_N, seed=17),
        "dp-period", PERIOD_BOUNDS, "period", DP_N,
    )
    het_looped, het_batched = _sweep_pair_seconds(
        generate_ensemble("high-heterogeneity", n_instances=HET_N, seed=17),
        METHOD, BOUNDS, "reliability", HET_N,
    )
    pareto_ensemble = generate_ensemble("section8-hom", n_instances=PARETO_N, seed=0)
    pareto_bounds = derive_bounds_grid(
        pareto_ensemble, n_points=PARETO_POINTS
    ).sweep("period")
    pareto_looped, pareto_batched = _sweep_pair_seconds(
        pareto_ensemble, "pareto-dp", pareto_bounds, "reliability", PARETO_N,
    )

    emit()
    emit(f"batched solving, {N_INSTANCES} instances x {METHOD} "
         f"x {len(BOUNDS)} points (section8-hom, cold caches)")
    emit(f"looped:  {looped_seconds:8.3f}s  ({n_units / looped_seconds:8.1f} units/s)")
    emit(f"batched: {batched_seconds:8.3f}s  ({n_units / batched_seconds:8.1f} units/s)")
    emit(f"batch speedup: {looped_seconds / batched_seconds:.1f}x")
    emit()
    emit("per-cell speedups (looped s / batched s):")
    emit(f"floored heur-l ({FLOOR_N} rows):      "
         f"{floor_looped:7.3f} / {floor_batched:7.3f} = "
         f"{floor_looped / floor_batched:.1f}x")
    emit(f"dp-period ({DP_N} rows):             "
         f"{dp_looped:7.3f} / {dp_batched:7.3f} = {dp_looped / dp_batched:.1f}x")
    emit(f"het heur-l ({HET_N} rows):           "
         f"{het_looped:7.3f} / {het_batched:7.3f} = "
         f"{het_looped / het_batched:.1f}x")
    emit(f"pareto-dp ({PARETO_N} rows x {PARETO_POINTS} pts):   "
         f"{pareto_looped:7.3f} / {pareto_batched:7.3f} = "
         f"{pareto_looped / pareto_batched:.1f}x")

    return {
        "batch_speedup": looped_seconds / batched_seconds,
        "floor_speedup": floor_looped / floor_batched,
        "batch_dp_period_speedup": dp_looped / dp_batched,
        "het_batch_speedup": het_looped / het_batched,
        "pareto_dp_speedup": pareto_looped / pareto_batched,
        "batched_units_per_s": n_units / batched_seconds,
        "looped_units_per_s": n_units / looped_seconds,
    }


def test_batch_solve_throughput(benchmark):
    metrics = run_batch_solve_bench()
    # The acceptance floor: each vectorized kernel cell must beat its
    # per-row loop by at least 5x.
    assert metrics["batch_speedup"] > 5.0
    assert metrics["floor_speedup"] > 5.0
    assert metrics["batch_dp_period_speedup"] > 5.0
    assert metrics["het_batch_speedup"] > 5.0
    assert metrics["pareto_dp_speedup"] > 5.0

    ensemble = generate_ensemble("section8-hom", n_instances=200, seed=17)
    methods = [get_method(METHOD)]
    benchmark(lambda: run_sweep(ensemble, methods, BOUNDS))


if __name__ == "__main__":
    try:
        from benchmarks.jsonbench import main
    except ImportError:  # plain `python benchmarks/bench_*.py` execution
        from jsonbench import main

    main(BENCH_NAME, run_batch_solve_bench)
