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

The no-routing study evaluates RBDs with networkx, so its two names
load on first access (PEP 562).
"""

import importlib

from repro.extensions.energy import (
    mapping_energy,
    energy_aware_alloc_het,
)
from repro.extensions.annealing import AnnealingStats, anneal_mapping
from repro.extensions.latency_search import minimize_latency_search
from repro.extensions.period_search import minimize_period_search

__all__ = [
    "RoutingComparison",
    "compare_routing",
    "mapping_energy",
    "energy_aware_alloc_het",
    "AnnealingStats",
    "anneal_mapping",
    "minimize_latency_search",
    "minimize_period_search",
]


def __getattr__(name: str):
    if name in ("RoutingComparison", "compare_routing"):
        return getattr(importlib.import_module("repro.extensions.norouting"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
