"""repro — reproduction of *Reliability and Performance Optimization of
Pipelined Real-Time Systems* (Benoit, Dufossé, Girault, Robert;
ICPP 2010 / JPDC 2013).

A pipelined real-time system is a linear chain of tasks executed
repeatedly over a stream of data sets on a distributed platform whose
processors and links suffer transient failures.  The library implements
the paper's models, all of its algorithms (optimal dynamic programs,
the optimal greedy allocation, the integer linear program, and the
Heur-L / Heur-P heuristics), the substrates they rely on (reliability
block diagrams, a MILP solver layer, a discrete-event fault-injection
simulator), the NP-completeness reduction constructions, and the full
experimental harness regenerating Figures 6-15.

Quickstart
----------
>>> from repro import TaskChain, Platform, heuristic_best
>>> chain = TaskChain(work=[10, 20, 15], output=[2, 3, 0])
>>> plat = Platform.homogeneous_platform(
...     4, speed=1.0, failure_rate=1e-8, link_failure_rate=1e-5,
...     max_replication=2)
>>> result = heuristic_best(chain, plat, max_period=30.0, max_latency=60.0)
>>> result.feasible
True
"""

from repro.core import (
    Interval,
    Mapping,
    MappingEvaluation,
    Platform,
    TaskChain,
    evaluate_mapping,
    random_chain,
    random_platform,
)
from repro.algorithms import (
    algo_alloc,
    algo_alloc_het,
    brute_force_best,
    heur_l_intervals,
    heur_p_intervals,
    heuristic_best,
    optimize_reliability,
    optimize_reliability_period,
    optimize_period_reliability,
    pareto_dp_best,
    ilp_best,
)
# Problem is re-exported at top level; the solve() facade stays at
# repro.solve.solve so the name `repro.solve` keeps meaning the package
# (exporting the function here would shadow the submodule attribute).
from repro.solve import Problem

__version__ = "3.0.0"

__all__ = [
    "TaskChain",
    "Platform",
    "Interval",
    "Mapping",
    "MappingEvaluation",
    "evaluate_mapping",
    "random_chain",
    "random_platform",
    "optimize_reliability",
    "optimize_reliability_period",
    "optimize_period_reliability",
    "algo_alloc",
    "algo_alloc_het",
    "heur_l_intervals",
    "heur_p_intervals",
    "heuristic_best",
    "brute_force_best",
    "pareto_dp_best",
    "ilp_best",
    "Problem",
    "__version__",
]
