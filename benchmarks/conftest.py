"""Shared infrastructure for the benchmark suite.

Each paper figure gets one bench module.  Figure pairs share one
experiment (e.g. Figs. 6 and 7 both come from the hom-period sweep), so
the *count* bench runs and times the full experiment, caches it, and
the sibling *failure* bench reuses the cache and times only its
aggregation — every figure keeps its own bench target without paying
for the sweep twice.

Scale: every bench runs 20 instances per experiment
(the paper uses 100) on the ``reduced`` grid (``full`` is the paper's
resolution), with ``ilp`` (the paper's reference) as the exact method
of the homogeneous experiments, from scenario seed 0.  Edit
:data:`BENCH_CONFIG` to run at another scale; no environment variable
changes it.

Execution knob (the harness reads it itself; it changes *how fast* a
bench runs, never its numbers — cached runs are bit-identical to
uncached ones):

* ``REPRO_CACHE_DIR`` — on-disk result cache directory shared across
  runs (unset = no caching; see :mod:`repro.experiments.replay` for the
  layout and :mod:`repro.experiments.cache` for the unit entries).
  With a warm cache a "bench" times the harness plumbing, not the
  solvers, so leave it unset for solver timing runs.  Benches sweep
  serially: the worker count has no environment knob.

Every bench prints the series it regenerates — the same rows the paper
plots — and asserts the qualitative shape findings of Section 8.
"""

from __future__ import annotations

from repro.experiments.figures import ExperimentResult, run_experiment

_CACHE: dict[tuple, ExperimentResult] = {}

#: The scale every bench runs at.
BENCH_CONFIG = {
    "n_instances": 20,
    "grid": "reduced",
    "exact_method": "ilp",
    "seed": 0,
}


def get_experiment(exp_id: str, compute=True) -> ExperimentResult | None:
    """Session-cached experiment runner."""
    if exp_id not in _CACHE:
        if not compute:
            return None
        _CACHE[exp_id] = run_experiment(exp_id, **BENCH_CONFIG)
    return _CACHE[exp_id]


def run_count_bench(benchmark, exp_id: str):
    """Time the full experiment sweep (once) and cache the result."""
    result = benchmark.pedantic(
        lambda: run_experiment(exp_id, **BENCH_CONFIG), rounds=1, iterations=1
    )
    _CACHE[exp_id] = result
    return result


def run_failure_bench(benchmark, exp_id: str, figure: str):
    """Reuse the cached sweep; time the failure-probability aggregation."""
    from repro.experiments.figures import run_figure

    exp = get_experiment(exp_id)

    def work():
        return run_figure(figure, experiment_result=exp)

    return exp, benchmark.pedantic(work, rounds=1, iterations=1)


_PYTEST_CONFIG = None


def pytest_configure(config):
    global _PYTEST_CONFIG
    _PYTEST_CONFIG = config


def emit(*parts: object) -> None:
    """Print bench output past pytest's capture, so the regenerated
    figure series always land on the real stdout (and in tee'd logs)."""
    import sys

    text = " ".join(str(p) for p in parts)
    capman = (
        _PYTEST_CONFIG.pluginmanager.getplugin("capturemanager")
        if _PYTEST_CONFIG is not None
        else None
    )
    if capman is not None:
        with capman.global_and_fixture_disabled():
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
    else:  # plain python execution
        print(text)
