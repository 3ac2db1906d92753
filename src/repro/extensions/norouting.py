"""Removing the routing operations: exact and approximate reliability of
general (non serial-parallel) mappings — the Section 9 future-work
question, made concrete.

The paper inserts routing operations so that the RBD is serial-parallel
and Eq. (9) applies.  The price is a pessimistic reliability estimate:
funnelling every replica's output through a single router discards the
redundancy of the full replica-to-replica communication mesh of
Figure 4.  This module quantifies that price:

* exact evaluation of the no-routing RBD by pivotal factoring
  (exponential worst case, fine at paper scale);
* the minimal-cut-set serial approximation discussed in Section 4,
  which by FKG is a guaranteed *lower* bound — so it can certify a
  reliability constraint on the no-routing system at linear cost in the
  number of cuts;
* a comparison record for experiments (`benchmarks/bench_ablation_routing.py`).

Two orderings are guaranteed and asserted:

    routed (Eq. 9)            <=  exact (no routing)
    cut-set bound (no routing) <=  exact (no routing)   [FKG]

The first holds because every S->D path of the routed RBD maps to a
path of the unrouted one (the router is perfectly reliable, and routed
paths use the same interval/communication blocks), so the routed
system's success event embeds in the unrouted one's — routing can only
lose reliability.  Empirically the cut-set bound also dominates the
routed value (tests check this on the paper's parameter regime), making
it an attractive *certifying* replacement for routing: linear in the
number of cuts, never optimistic, tighter than Eq. (9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.evaluation import mapping_log_reliability
from repro.core.mapping import Mapping
from repro.rbd.build import rbd_without_routing
from repro.rbd.evaluate import (
    cut_set_lower_bound,
    exact_log_reliability_factoring,
    minimal_cut_sets,
)
from repro.util import logrel

__all__ = ["RoutingComparison", "compare_routing"]


@dataclass(frozen=True)
class RoutingComparison:
    """Reliability of one mapping with and without routing operations.

    All reliabilities are log-domain.  ``*_seconds`` record evaluation
    cost — the trade the paper buys with routing: linear-time evaluation
    versus the exponential-in-general exact computation.
    """

    routed_log_reliability: float
    unrouted_exact_log_reliability: float
    unrouted_cutset_log_reliability: float
    n_minimal_cuts: int
    routed_seconds: float
    unrouted_exact_seconds: float
    unrouted_cutset_seconds: float

    @property
    def routing_penalty(self) -> float:
        """How much reliability routing gives up, as the ratio of
        failure probabilities ``f_routed / f_unrouted`` (>= 1)."""
        f_routed = logrel.failure(self.routed_log_reliability)
        f_unrouted = logrel.failure(self.unrouted_exact_log_reliability)
        if f_unrouted == 0.0:
            return float("inf") if f_routed > 0 else 1.0
        return f_routed / f_unrouted

    @property
    def cutset_gap(self) -> float:
        """Tightness of the cut-set bound: ``f_bound / f_exact`` (>= 1)."""
        f_bound = logrel.failure(self.unrouted_cutset_log_reliability)
        f_exact = logrel.failure(self.unrouted_exact_log_reliability)
        if f_exact == 0.0:
            return float("inf") if f_bound > 0 else 1.0
        return f_bound / f_exact


def compare_routing(  # repro-lint: disable=API001 served by repro.extensions.__getattr__
    mapping: Mapping,
) -> RoutingComparison:
    """Evaluate *mapping* with routing (Eq. (9)) and without (Figure 4).

    Raises
    ------
    ValueError
        If the no-routing RBD is too large for exact evaluation (the
        cut-set enumeration guard); paper-scale mappings are fine.
    """
    # The *_seconds fields measure evaluation cost — an explicit output
    # of this comparison (the trade routing buys), not an input to any
    # reliability value.  The clock reads below are therefore waived:
    # the deterministic outputs are unaffected by them.
    t0 = time.perf_counter()  # repro-lint: disable=DET001 measures evaluation cost only
    routed = mapping_log_reliability(mapping)
    t1 = time.perf_counter()  # repro-lint: disable=DET001 measures evaluation cost only

    rbd = rbd_without_routing(mapping)
    t2 = time.perf_counter()  # repro-lint: disable=DET001 measures evaluation cost only
    exact = exact_log_reliability_factoring(rbd)
    t3 = time.perf_counter()  # repro-lint: disable=DET001 measures evaluation cost only
    cuts = minimal_cut_sets(rbd)
    bound = cut_set_lower_bound(rbd)
    t4 = time.perf_counter()  # repro-lint: disable=DET001 measures evaluation cost only

    if not (routed <= exact + 1e-9 and bound <= exact + 1e-9):
        raise AssertionError(
            "reliability ordering violated: "
            f"routed={routed}, cutset={bound}, exact={exact}"
        )
    return RoutingComparison(
        routed_log_reliability=routed,
        unrouted_exact_log_reliability=exact,
        unrouted_cutset_log_reliability=bound,
        n_minimal_cuts=len(cuts),
        routed_seconds=t1 - t0,
        unrouted_exact_seconds=t3 - t2,
        unrouted_cutset_seconds=t4 - t3,
    )
