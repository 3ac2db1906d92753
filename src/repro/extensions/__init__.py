"""Implemented future-work directions from the paper's Section 9.

* :mod:`repro.extensions.norouting` — "an interesting future research
  direction would be to investigate whether it is feasible to remove
  this routing procedure, and accurately approximate the reliability of
  general systems (non serial-parallel)": exact factoring evaluation of
  the Figure 4 (no-routing) RBD, the FKG cut-set approximation, and a
  study comparing both against the routed Eq. (9) value.
* :mod:`repro.extensions.energy` — "heuristics for even more difficult
  problems that would mix performance-oriented criteria (period,
  latency) with several other objectives, such as reliability, resource
  costs, and power consumption": a standard dynamic-power energy metric
  and an energy-aware variant of the processor-allocation step.
* :mod:`repro.extensions.annealing` — "the design of heuristics for even
  more difficult problems": a simulated-annealing mapper searching the
  space of complete mappings directly, usable on any platform and as a
  quality yardstick for Heur-L/Heur-P.
* :mod:`repro.extensions.period_search` — period minimization on
  heterogeneous platforms (where the Section 5.2 converse does not
  apply) by binary search over Section 7 heuristic solves; registered
  as the ``het-period-search`` method.
* :mod:`repro.extensions.latency_search` — the latency twin
  (``het-latency-search``), completing ``method="auto"`` coverage over
  every (objective x platform-kind) cell.

Every name loads its defining module on first access (PEP 562): the
no-routing study evaluates RBDs with networkx, so ``import
repro.extensions`` must not load it.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "RoutingComparison": "repro.extensions.norouting",
    "compare_routing": "repro.extensions.norouting",
    "mapping_energy": "repro.extensions.energy",
    "energy_aware_alloc_het": "repro.extensions.energy",
    "AnnealingStats": "repro.extensions.annealing",
    "anneal_mapping": "repro.extensions.annealing",
    "minimize_latency_search": "repro.extensions.latency_search",
    "minimize_period_search": "repro.extensions.period_search",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
