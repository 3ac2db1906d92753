"""The Section 8 experimental harness.

Everything needed to regenerate Figures 6-15:

* :mod:`repro.experiments.instances` — the random instance suites with
  the paper's exact distributions (homogeneous, and heterogeneous/
  homogeneous counterpart pairs);
* :mod:`repro.experiments.methods` — a pluggable registry
  (:func:`register_method`) over the compared methods (ILP, Heur-L,
  Heur-P, our exact Pareto DP, brute force, annealing) with capability
  metadata; methods solve :class:`repro.solve.Problem` objects, and
  the :func:`repro.solve.solve` facade / scenario-aware
  :class:`repro.solve.Planner` sit on top of this registry;
* :mod:`repro.experiments.harness` — parallel, cache-backed bound
  sweeps, solution counting, and the paper's two failure-probability
  averaging rules;
* :mod:`repro.experiments.cache` — the content-addressed on-disk
  result cache shared by figures, benches, and the CLI;
* :mod:`repro.experiments.figures` — one configuration per figure and
  the runners that produce its series;
* :mod:`repro.experiments.report` — ASCII rendering and JSON dumps;
* :mod:`repro.experiments.crosscheck` — the whole-stack validation
  chain over a randomized (or scenario-driven) instance population.

Workloads beyond the paper's two suites are declared, not coded: the
harness, the cross-check, and the CLI all accept scenario names or
specs from :mod:`repro.scenarios` (``run_sweep("long-chain", ...)``),
with the spec's content hash folded into the result-cache keys.

The cross-check pulls in the RBD layer (networkx) and the simulator,
so its two names load on first access (PEP 562).
"""

import importlib

from repro.experiments.instances import (
    HOM_DEFAULTS,
    HET_DEFAULTS,
    homogeneous_suite,
    heterogeneous_suite,
)
from repro.experiments.methods import (
    METHODS,
    Method,
    UnknownMethodError,
    get_method,
    register_method,
)
from repro.experiments.cache import ResultCache
from repro.experiments.harness import SweepResult, run_sweep
from repro.experiments.figures import (
    EXPERIMENTS,
    FIGURES,
    FigureResult,
    run_experiment,
    run_figure,
)
from repro.experiments.report import render_series_table, series_to_json

__all__ = [
    "HOM_DEFAULTS",
    "HET_DEFAULTS",
    "homogeneous_suite",
    "heterogeneous_suite",
    "METHODS",
    "Method",
    "UnknownMethodError",
    "get_method",
    "register_method",
    "ResultCache",
    "CrosscheckReport",
    "run_crosscheck",
    "SweepResult",
    "run_sweep",
    "EXPERIMENTS",
    "FIGURES",
    "FigureResult",
    "run_experiment",
    "run_figure",
    "render_series_table",
    "series_to_json",
]


def __getattr__(name: str):
    if name in ("CrosscheckReport", "run_crosscheck"):
        return getattr(importlib.import_module("repro.experiments.crosscheck"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
