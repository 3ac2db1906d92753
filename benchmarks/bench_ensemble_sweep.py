"""Throughput of the columnar sweep path — cold solves and warm replays.

``run_sweep`` now speaks :class:`repro.core.ensemble.Ensemble`
natively: unit cache keys derive from raw-array row digests, worker
shards ship columnar payloads, and instances only materialize
``TaskChain``/``Platform`` objects when a solver actually runs.  The
payoff shows on the *warm* path: a fully cached sweep is pure key
derivation plus JSON reads — no objects, no solves.  This bench runs a
Section 8.1-shaped sweep cold into a fresh cache and then warm, and
checks the bit-identity contract between the ensemble and the
materialized instance forms (same cache keys, so the warm materialized
run performs zero recomputation).

Metrics:

* ``warm_speedup`` — cold seconds over warm seconds (machine-portable
  ratio; the columnar headline);
* ``warm_us_per_unit`` — absolute warm lookup cost per work unit
  (loosely gated: wall time varies across CI hardware);
* ``cold_units_per_s`` — informational solve throughput;
* ``telemetry_overhead_ratio`` — warm 1000-instance sweep with an
  active :mod:`repro.obs` collector over the same sweep with telemetry
  disabled (median over interleaved leg pairs).  The observability contract
  is that spans and counters stay within 5% of free on the hot path.

Dual entry points: a pytest-benchmark test and a ``--json`` script mode
for the benchmark-regression gate::

    PYTHONPATH=src python benchmarks/bench_ensemble_sweep.py --json out.json
"""

import contextlib
import gc
import statistics
import tempfile
import time

import numpy as np

from repro.experiments import ResultCache, get_method, run_sweep
from repro.obs import telemetry as obs
from repro.scenarios import generate_ensemble

try:
    from benchmarks.conftest import emit
except ImportError:  # script mode: no pytest plumbing to bypass
    def emit(*parts):
        print(" ".join(str(p) for p in parts))

N_INSTANCES = 60
N_OVERHEAD_INSTANCES = 1000
#: Disabled/enabled leg pairs of the telemetry-overhead bench.
N_OVERHEAD_PAIRS = 25
BOUNDS = [(150.0, 750.0), (250.0, 750.0), (400.0, 750.0)]

#: Regression-gate metric names (see run_ensemble_sweep_bench).
BENCH_NAME = "bench_ensemble_sweep"


def run_ensemble_sweep_bench() -> dict:
    """Run the columnar sweep cold and warm; return the gate metrics."""
    ensemble = generate_ensemble("section8-hom", n_instances=N_INSTANCES, seed=11)
    methods = [get_method("heur-l"), get_method("heur-p")]
    n_units = len(methods) * N_INSTANCES

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        t0 = time.perf_counter()
        # batch=False keeps the cold leg measuring object-level solve
        # cost, so warm_speedup retains its meaning (solve vs lookup);
        # the batched-vs-looped ratio is bench_batch_solve's metric.
        cold = run_sweep(ensemble, methods, BOUNDS, cache=cache, batch=False)
        cold_seconds = time.perf_counter() - t0
        assert cache.stats() == {"hits": 0, "misses": n_units, "puts": n_units,
                                 "corrupt": 0, "hit_rate": 0.0}

        warm_cache = ResultCache(tmp)
        t0 = time.perf_counter()
        warm = run_sweep(ensemble, methods, BOUNDS, cache=warm_cache)
        warm_seconds = time.perf_counter() - t0
        assert warm_cache.stats() == {"hits": n_units, "misses": 0, "puts": 0,
                                      "corrupt": 0, "hit_rate": 1.0}
        assert np.array_equal(cold.solved, warm.solved)
        assert np.array_equal(cold.failure, warm.failure)
        assert np.array_equal(cold.objective_values, warm.objective_values)

        # Bit-identity contract: the materialized twin derives the very
        # same unit keys, so it replays the ensemble's entries with
        # zero recomputation and identical arrays.
        mat_cache = ResultCache(tmp)
        materialized = run_sweep(ensemble.materialize(), methods, BOUNDS, cache=mat_cache)
        assert mat_cache.stats() == {"hits": n_units, "misses": 0, "puts": 0,
                                     "corrupt": 0, "hit_rate": 1.0}
        assert np.array_equal(cold.solved, materialized.solved)
        assert np.array_equal(cold.failure, materialized.failure)

    overhead_ratio = run_telemetry_overhead_bench()

    emit()
    emit(f"ensemble sweep, {N_INSTANCES} instances x {len(methods)} methods "
         f"x {len(BOUNDS)} points (section8-hom)")
    emit(f"cold: {cold_seconds:8.3f}s  ({n_units / cold_seconds:8.1f} units/s)")
    emit(f"warm: {warm_seconds:8.3f}s  ({warm_seconds / n_units * 1e6:8.1f} us/unit)")
    emit(f"warm speedup: {cold_seconds / warm_seconds:.1f}x")
    emit(f"telemetry overhead (warm, {N_OVERHEAD_INSTANCES} instances): "
         f"{overhead_ratio:.3f}x")

    return {
        "warm_speedup": cold_seconds / warm_seconds,
        "warm_us_per_unit": warm_seconds / n_units * 1e6,
        "cold_units_per_s": n_units / cold_seconds,
        "telemetry_overhead_ratio": overhead_ratio,
    }


def run_telemetry_overhead_bench() -> float:
    """Warm-sweep seconds with a live collector over seconds without.

    The warm path is where telemetry density peaks — every unit fires a
    cache-hit counter inside the lookup span, with zero solve time to
    hide behind — so it bounds the instrumentation cost everywhere
    else.  The two kinds of leg run in :data:`N_OVERHEAD_PAIRS`
    adjacent pairs, the order flipping every pair, and the result is
    the median of the per-pair ratios: drift in machine load then hits
    both legs of a pair alike instead of whichever kind ran last, and
    a few disturbed pairs cannot move the result.
    """
    ensemble = generate_ensemble(
        "section8-hom", n_instances=N_OVERHEAD_INSTANCES, seed=11)
    methods = [get_method("heur-l")]

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        run_sweep(ensemble, methods, BOUNDS, cache=cache)  # fill

        def warm_leg(with_telemetry: bool) -> float:
            gc.collect()  # no leg inherits the previous leg's garbage
            leg_cache = ResultCache(tmp)
            with obs.collect() if with_telemetry else contextlib.nullcontext():
                t0 = time.perf_counter()
                run_sweep(ensemble, methods, BOUNDS, cache=leg_cache)
                return time.perf_counter() - t0

        warm_leg(False)  # touch every cache file once before timing
        ratios = []
        for pair in range(N_OVERHEAD_PAIRS):
            seconds = {t: warm_leg(t) for t in (pair % 2 == 1, pair % 2 == 0)}
            ratios.append(seconds[True] / seconds[False])

    return statistics.median(ratios)


def test_ensemble_sweep_throughput(benchmark):
    metrics = run_ensemble_sweep_bench()
    # A warm sweep must be far cheaper than a cold one — the whole
    # point of deriving keys from row digests.  10x is a very loose
    # floor; typical ratios are in the hundreds.
    assert metrics["warm_speedup"] > 10.0
    # The observability acceptance gate: spans + counters must stay
    # within 5% of telemetry-disabled on a warm 1000-instance sweep.
    assert metrics["telemetry_overhead_ratio"] <= 1.05

    ensemble = generate_ensemble("section8-hom", n_instances=10, seed=11)
    methods = [get_method("heur-l")]
    benchmark(lambda: run_sweep(ensemble, methods, BOUNDS))


if __name__ == "__main__":
    try:
        from benchmarks.jsonbench import main
    except ImportError:  # plain `python benchmarks/bench_*.py` execution
        from jsonbench import main

    main(BENCH_NAME, run_ensemble_sweep_bench)
