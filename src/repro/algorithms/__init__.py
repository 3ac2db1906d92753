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
  are bit-identical to the per-instance loop;
  :func:`heuristic_solve_batch` / :func:`search_solve_batch` package
  them as the registry's ``solve_batch`` capability.  Every kernel
  returns a :class:`UnitResults`, and
  :class:`BatchUnsupported` is the fallback signal (with a
  machine-readable ``reason``) for shapes the kernels do not cover.
"""

from repro.algorithms.result import SolveResult
from repro.algorithms.dp_reliability import optimize_reliability
from repro.algorithms.dp_period import (
    optimize_reliability_period,
    minimize_period,
)
from repro.algorithms.allocation import algo_alloc, algo_alloc_het
from repro.algorithms.batch import (
    BatchUnsupported,
    UnitResults,
    batch_heuristic_best,
    heuristic_solve_batch,
)
from repro.algorithms.batch_dp import (
    batch_minimize_latency,
    batch_minimize_period,
    batch_pareto_dp,
)
from repro.algorithms.batch_search import batch_bisection_search, search_solve_batch
from repro.algorithms.heuristics import (
    heur_l_intervals,
    heur_p_intervals,
    heuristic_best,
    heuristic_candidates,
)
from repro.algorithms.pareto_dp import minimize_latency, pareto_dp_best
from repro.algorithms.brute_force import (
    brute_force_best,
    enumerate_mappings_hom,
    enumerate_mappings_het,
)
from repro.algorithms.ilp_mapping import ilp_best, build_mapping_ilp
from repro.algorithms.baselines import one_to_one_best, single_interval_best

__all__ = [
    "one_to_one_best",
    "single_interval_best",
    "SolveResult",
    "optimize_reliability",
    "optimize_reliability_period",
    "minimize_period",
    "minimize_latency",
    "algo_alloc",
    "algo_alloc_het",
    "BatchUnsupported",
    "UnitResults",
    "batch_heuristic_best",
    "batch_minimize_latency",
    "batch_minimize_period",
    "batch_pareto_dp",
    "batch_bisection_search",
    "heuristic_solve_batch",
    "search_solve_batch",
    "heur_l_intervals",
    "heur_p_intervals",
    "heuristic_best",
    "heuristic_candidates",
    "pareto_dp_best",
    "brute_force_best",
    "enumerate_mappings_hom",
    "enumerate_mappings_het",
    "ilp_best",
    "build_mapping_ilp",
]
