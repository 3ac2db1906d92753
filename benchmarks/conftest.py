"""Shared infrastructure for the benchmark suite.

Each paper figure gets one bench module.  Figure pairs share one
experiment (e.g. Figs. 6 and 7 both come from the hom-period sweep), so
the *count* bench runs and times the full experiment, caches it, and
the sibling *failure* bench reuses the cache and times only its
aggregation — every figure keeps its own bench target without paying
for the sweep twice.

Scale knobs:

* ``REPRO_INSTANCES`` — instances per experiment (default 20; the
  paper uses 100);
* ``REPRO_GRID`` — ``reduced`` (default) or ``full`` (paper
  resolution);
* ``REPRO_EXACT`` — exact method for the homogeneous experiments:
  ``ilp`` (default, the paper's reference) or ``pareto-dp`` (same
  optima, faster).

Execution knobs (the harness reads these itself; they change *how
fast* a bench runs, never its numbers — parallel and cached runs are
bit-identical to serial ones):

* ``REPRO_JOBS`` — worker processes for the sweep fan-out (default 1 =
  serial).  Note that with a warm cache or ``jobs > 1`` a "bench" times
  the harness plumbing, not the solvers, so leave both off for solver
  timing runs;
* ``REPRO_CACHE_DIR`` — on-disk result cache directory shared across
  runs (unset = no caching; see :mod:`repro.experiments.cache` for the
  layout and the manifest written by ``python -m repro experiment``).

Every bench prints the series it regenerates — the same rows the paper
plots — and asserts the qualitative shape findings of Section 8.
"""

from __future__ import annotations

import os


from repro.experiments.figures import ExperimentResult, run_experiment

_CACHE: dict[tuple, ExperimentResult] = {}


def bench_config() -> dict:
    """Resolve the scale knobs once per process."""
    return {
        "n_instances": int(os.environ.get("REPRO_INSTANCES", "20")),
        "grid": os.environ.get("REPRO_GRID", "reduced"),
        "exact_method": os.environ.get("REPRO_EXACT", "ilp"),
        "seed": int(os.environ.get("REPRO_SEED", "0")),
    }


def get_experiment(exp_id: str, compute=True) -> ExperimentResult | None:
    """Session-cached experiment runner."""
    cfg = bench_config()
    key = (exp_id, cfg["n_instances"], cfg["grid"], cfg["exact_method"], cfg["seed"])
    if key not in _CACHE:
        if not compute:
            return None
        _CACHE[key] = run_experiment(
            exp_id,
            n_instances=cfg["n_instances"],
            grid=cfg["grid"],
            seed=cfg["seed"],
            exact_method=cfg["exact_method"],
        )
    return _CACHE[key]


def run_count_bench(benchmark, exp_id: str):
    """Time the full experiment sweep (once) and cache the result."""
    cfg = bench_config()
    key = (exp_id, cfg["n_instances"], cfg["grid"], cfg["exact_method"], cfg["seed"])

    def work():
        return run_experiment(
            exp_id,
            n_instances=cfg["n_instances"],
            grid=cfg["grid"],
            seed=cfg["seed"],
            exact_method=cfg["exact_method"],
        )

    result = benchmark.pedantic(work, rounds=1, iterations=1)
    _CACHE[key] = result
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
