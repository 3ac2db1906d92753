"""Cost of the result-cache store — cold stores and warm replays.

The result cache keeps one JSON file per key (mkstemp + rename
writes).  This bench pins the price of that store so a storage
regression fails the gate.

A 1000-unit section8-hom sweep runs cold into a fresh store and then
warm.  The cold leg prices entry writes (the batched kernels make solve
time small, so store cost is visible); the warm leg prices pure
lookups — the regime a shared cache lives in.

Metric:

* ``files_warm_us_per_unit`` — absolute warm lookup cost per work unit
  (loosely gated: wall time varies across CI hardware).

The bench also asserts that the warm sweep replays the cold sweep's
arrays and that the store holds one entry per unit.

Dual entry points: a pytest-benchmark test and a ``--json`` script mode
for the benchmark-regression gate::

    PYTHONPATH=src python benchmarks/bench_cache_backends.py --json out.json
"""

import tempfile
import time

import numpy as np

from repro.experiments import ResultCache, get_method, run_sweep
from repro.scenarios import generate_ensemble

try:
    from benchmarks.conftest import emit
except ImportError:  # script mode: no pytest plumbing to bypass
    def emit(*parts):
        print(" ".join(str(p) for p in parts))

N_INSTANCES = 1000
BOUNDS = [(250.0, 750.0)]

#: Regression-gate metric names (see run_cache_backends_bench).
BENCH_NAME = "bench_cache_backends"


def _legs(ensemble, methods) -> dict:
    """The cold and warm sweep over one fresh store; returns timings."""
    n_units = len(methods) * N_INSTANCES
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        t0 = time.perf_counter()
        cold = run_sweep(ensemble, methods, BOUNDS, cache=cache)
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
        assert cache.storage_stats()["entries"] == N_INSTANCES
    return {"cold_seconds": cold_seconds, "warm_seconds": warm_seconds}


def run_cache_backends_bench() -> dict:
    """Cold/warm 1000-unit sweep; return the gate metrics."""
    ensemble = generate_ensemble("section8-hom", n_instances=N_INSTANCES, seed=17)
    methods = [get_method("heur-l")]
    n_units = len(methods) * N_INSTANCES

    legs = _legs(ensemble, methods)

    emit()
    emit(f"result cache, {N_INSTANCES} instances x {len(methods)} method "
         f"x {len(BOUNDS)} point (section8-hom)")
    emit(f"files  cold: {legs['cold_seconds']:7.3f}s   "
         f"warm: {legs['warm_seconds']:7.3f}s  "
         f"({legs['warm_seconds'] / n_units * 1e6:7.1f} us/unit)")

    return {"files_warm_us_per_unit": legs["warm_seconds"] / n_units * 1e6}


def test_cache_backends_throughput(benchmark):
    run_cache_backends_bench()

    ensemble = generate_ensemble("section8-hom", n_instances=20, seed=17)
    methods = [get_method("heur-l")]

    def warm_sweep():
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            run_sweep(ensemble, methods, BOUNDS, cache=cache)
            return run_sweep(ensemble, methods, BOUNDS, cache=cache)

    benchmark(warm_sweep)


if __name__ == "__main__":
    try:
        from benchmarks.jsonbench import main
    except ImportError:  # plain `python benchmarks/bench_*.py` execution
        from jsonbench import main

    main(BENCH_NAME, run_cache_backends_bench)
