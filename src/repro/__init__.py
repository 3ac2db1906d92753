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

from repro._lazy import lazy_exports

__version__ = "8.0.0"

# Each public name loads its defining module on first access (PEP 562),
# so `import repro` costs no numpy.  Problem is re-exported at top
# level; the solve() facade stays at repro.solve.solve so the name
# `repro.solve` keeps meaning the package (exporting the function here
# would shadow the submodule attribute).
_LAZY = {
    "TaskChain": "repro.core.chain",
    "Platform": "repro.core.platform",
    "Interval": "repro.core.interval",
    "Mapping": "repro.core.mapping",
    "MappingEvaluation": "repro.core.evaluation",
    "evaluate_mapping": "repro.core.evaluation",
    "random_chain": "repro.core.generate",
    "random_platform": "repro.core.generate",
    "optimize_reliability": "repro.algorithms.dp_reliability",
    "optimize_reliability_period": "repro.algorithms.dp_period",
    "algo_alloc": "repro.algorithms.allocation",
    "algo_alloc_het": "repro.algorithms.allocation",
    "heur_l_intervals": "repro.algorithms.heuristics",
    "heur_p_intervals": "repro.algorithms.heuristics",
    "heuristic_best": "repro.algorithms.heuristics",
    "brute_force_best": "repro.algorithms.brute_force",
    "pareto_dp_best": "repro.algorithms.pareto_dp",
    "ilp_best": "repro.algorithms.ilp_mapping",
    "Problem": "repro.solve.problem",
}

__all__ = [*_LAZY, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
