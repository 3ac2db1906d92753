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
* :mod:`repro.experiments.cache` — the content-addressed result
  cache shared by figures, benches, and the CLI: unit keys, entries
  and lookup counters;
* :mod:`repro.experiments.replay` — the cache directory's files (unit
  entries and run records: one stamped envelope, one reader, one
  vacuum rule) and the replay of a repeated ``scenario run``;
* :mod:`repro.experiments.figures` — one configuration per figure and
  the runners that produce its series;
* :mod:`repro.experiments.report` — ASCII rendering and JSON dumps;
* :mod:`repro.experiments.crosscheck` — the whole-stack validation
  chain over a randomized (or scenario-driven) instance population.

Workloads beyond the paper's two suites are declared, not coded: the
harness, the cross-check, and the CLI all accept scenario names or
specs from :mod:`repro.scenarios` (``run_sweep("long-chain", ...)``),
with the spec's content hash folded into the result-cache keys.

Every name loads its defining module on first access (PEP 562), so
``from repro.experiments import run_sweep`` costs neither the figures
nor the cross-check, whose RBD layer pulls in networkx.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "HOM_DEFAULTS": "repro.experiments.instances",
    "HET_DEFAULTS": "repro.experiments.instances",
    "homogeneous_suite": "repro.experiments.instances",
    "heterogeneous_suite": "repro.experiments.instances",
    "METHODS": "repro.experiments.methods",
    "Method": "repro.experiments.methods",
    "UnknownMethodError": "repro.experiments.methods",
    "get_method": "repro.experiments.methods",
    "register_method": "repro.experiments.methods",
    "ResultCache": "repro.experiments.cache",
    "CrosscheckReport": "repro.experiments.crosscheck",
    "run_crosscheck": "repro.experiments.crosscheck",
    "SweepResult": "repro.experiments.harness",
    "run_sweep": "repro.experiments.harness",
    "EXPERIMENTS": "repro.experiments.figures",
    "FIGURES": "repro.experiments.figures",
    "FigureResult": "repro.experiments.figures",
    "run_experiment": "repro.experiments.figures",
    "run_figure": "repro.experiments.figures",
    "render_series_table": "repro.experiments.report",
    "series_to_json": "repro.experiments.report",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
