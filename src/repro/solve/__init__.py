"""The unified solver surface: ``Problem`` in, ``SolveResult`` out.

This package redesigns how the reproduction talks to its solvers.
Instead of the historical positional tuple ``(chain, platform,
max_period, max_latency)`` — re-spelled at every layer — three
first-class objects carry the whole story:

* :class:`Problem` — the frozen, content-hashable Section 3 instance
  (chain + platform + period/latency bounds + objective), with
  :func:`solve` as the one-call facade over the method registry;
* :class:`Planner` / :class:`Plan` — scenario-aware method selection:
  which registered methods apply to a workload, in which order, and a
  recorded reason for every method skipped (``repro plan show``);
* :class:`BoundsGrid` / :func:`derive_bounds_grid` — quantile-derived
  (P, L) sweep grids from unbounded probe solves, so ``repro scenario
  run --grid auto`` produces paper-style feasibility curves for *any*
  scenario, not just the paper's two hand-tuned workloads.

Quickstart
----------
>>> from repro.core import Platform, TaskChain
>>> from repro.solve import Problem, solve
>>> chain = TaskChain(work=[10, 20, 15], output=[2, 3, 0])
>>> plat = Platform.homogeneous_platform(
...     4, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=2)
>>> problem = Problem(chain, plat, max_period=30.0, max_latency=60.0)
>>> solve(problem).feasible                   # method="auto"
True
>>> solve(problem, method="heur-l").feasible  # any registry name
True
"""

from repro._lazy import lazy_exports

_LAZY = {
    "OBJECTIVES": "repro.solve.objectives",
    "Problem": "repro.solve.problem",
    "encode_bound": "repro.util.hashing",
    "auto_method_name": "repro.solve.facade",
    "solve": "repro.solve.facade",
    "MethodSkip": "repro.solve.planner",
    "Plan": "repro.solve.planner",
    "Planner": "repro.solve.planner",
    "BoundsGrid": "repro.solve.grid",
    "derive_bounds_grid": "repro.solve.grid",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
