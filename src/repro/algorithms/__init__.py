"""All mapping algorithms from the paper.

* Section 5.1, Algorithm 1 — :func:`optimize_reliability` (homogeneous,
  optimal, polynomial).
* Section 5.2, Algorithm 2 — :func:`optimize_reliability_period`
  (homogeneous, optimal under a period bound) and the converse
  :func:`minimize_period` (binary search).
* Section 5.4 — :func:`ilp_best` (exact integer program, homogeneous).
* Section 5.5, Algo-Alloc — :func:`algo_alloc` (optimal greedy
  allocation, Theorem 4) and its Section 7.2 heterogeneous variant
  :func:`algo_alloc_het`.
* Section 7.1 — :func:`heur_l_intervals` (Algorithm 3),
  :func:`heur_p_intervals` (Algorithm 4), and the complete two-step
  heuristic :func:`heuristic_best`.
* Exact references — :func:`pareto_dp_best` (tri-criteria exact DP, ours)
  and :func:`brute_force_best` (exhaustive oracle for tiny instances,
  objective-aware).
* Converse objectives (the tri-criteria facade) —
  :func:`minimize_period` (binary search honoring a latency bound) and
  :func:`minimize_latency` (Pareto-frontier scan under a reliability
  floor).
* Batched kernels (:mod:`repro.algorithms.batch`,
  :mod:`repro.algorithms.batch_dp`, :mod:`repro.algorithms.batch_search`)
  — :func:`batch_heuristic_best` evaluates a Section 7 heuristic over
  every row of a columnar ensemble in one call;
  :func:`batch_minimize_period` / :func:`batch_minimize_latency` /
  :func:`batch_pareto_dp` do the same for the exact DPs on homogeneous
  rows, and
  :func:`batch_bisection_search` for the heterogeneous searches.  All
  are bit-identical to the per-instance loop, and every kernel returns
  a :class:`UnitResults` (:mod:`repro.algorithms.result`, next to
  :class:`SolveResult`).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "one_to_one_best": "repro.algorithms.baselines",
    "single_interval_best": "repro.algorithms.baselines",
    "SolveResult": "repro.algorithms.result",
    "optimize_reliability": "repro.algorithms.dp_reliability",
    "optimize_reliability_period": "repro.algorithms.dp_period",
    "minimize_period": "repro.algorithms.dp_period",
    "minimize_latency": "repro.algorithms.pareto_dp",
    "algo_alloc": "repro.algorithms.allocation",
    "algo_alloc_het": "repro.algorithms.allocation",
    "UnitResults": "repro.algorithms.result",
    "batch_heuristic_best": "repro.algorithms.batch",
    "batch_minimize_latency": "repro.algorithms.batch_dp",
    "batch_minimize_period": "repro.algorithms.batch_dp",
    "batch_pareto_dp": "repro.algorithms.batch_dp",
    "batch_bisection_search": "repro.algorithms.batch_search",
    "heur_l_intervals": "repro.algorithms.heuristics",
    "heur_p_intervals": "repro.algorithms.heuristics",
    "heuristic_best": "repro.algorithms.heuristics",
    "heuristic_candidates": "repro.algorithms.heuristics",
    "pareto_dp_best": "repro.algorithms.pareto_dp",
    "brute_force_best": "repro.algorithms.brute_force",
    "enumerate_mappings_hom": "repro.algorithms.brute_force",
    "enumerate_mappings_het": "repro.algorithms.brute_force",
    "ilp_best": "repro.algorithms.ilp_mapping",
    "build_mapping_ilp": "repro.algorithms.ilp_mapping",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
