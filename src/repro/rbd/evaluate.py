"""Exact and approximate RBD evaluation.

Exact methods (both compute the *failure* probability in the linear
domain — a sum/mixture of non-negative terms, hence no catastrophic
cancellation even at the paper's 1e-19 failure scales — and convert to
log-reliability at the boundary):

* :func:`exact_log_reliability_enumeration` — sum over all ``2^B`` block
  states; the oracle for everything else (capped block count).
* :func:`exact_log_reliability_factoring` — pivotal (Shannon)
  decomposition: condition on a block being up (contract) or down
  (delete), recurse; with path-existence short-circuits this handles the
  paper-scale no-routing diagrams comfortably.

Structure methods:

* :func:`minimal_path_sets` — inclusion-minimal block sets whose joint
  operation connects S to D;
* :func:`minimal_cut_sets` — inclusion-minimal block sets whose joint
  failure disconnects S from D (Section 4's cut sets, cf. [24]);
* :func:`cut_set_lower_bound` — the paper's approximation: all minimal
  cut sets composed in sequence.  By the FKG/Harris inequality the
  events "cut c contains a working block" are increasing in the block
  states, so their product *under*-estimates the joint probability:
  the approximation is a guaranteed lower bound on the reliability.
* :func:`path_set_upper_bound` — dual bound: minimal path sets composed
  in parallel over-estimate reliability (the events "path pi fully
  works" are increasing, so the probability that all fail is at least
  the product of the individual failure probabilities).
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable

import networkx as nx

from repro.rbd.diagram import DEST, SOURCE, RBD
from repro.util import logrel

__all__ = [
    "exact_log_reliability_enumeration",
    "exact_log_reliability_factoring",
    "minimal_path_sets",
    "minimal_cut_sets",
    "cut_set_lower_bound",
    "path_set_upper_bound",
]

#: State enumeration refuses diagrams with more blocks than this.
MAX_ENUMERATION_BLOCKS = 22


def exact_log_reliability_enumeration(rbd: RBD) -> float:
    """Exact log-reliability by summing over all block states.

    ``O(2^B)`` — the test oracle.  Failure probability is accumulated in
    the linear domain (sum of non-negative products) for stability.
    """
    nodes = list(rbd.blocks)
    B = len(nodes)
    if B > MAX_ENUMERATION_BLOCKS:
        raise ValueError(
            f"{B} blocks exceed the enumeration cap ({MAX_ENUMERATION_BLOCKS})"
        )
    rel = [rbd.block(n).reliability for n in nodes]
    fail = [rbd.block(n).failure for n in nodes]

    failure_prob = 0.0
    for bits in itertools.product((True, False), repeat=B):
        up = {n for n, b in zip(nodes, bits) if b}
        if rbd.operational(up):
            continue
        prob = 1.0
        for i, b in enumerate(bits):
            prob *= rel[i] if b else fail[i]
        failure_prob += prob
    return logrel.from_failure(min(failure_prob, 1.0))


def _contract(g: nx.DiGraph, node: Hashable) -> nx.DiGraph:
    """Remove *node*, connecting its predecessors to its successors."""
    h = g.copy()
    preds = list(h.predecessors(node))
    succs = list(h.successors(node))
    h.remove_node(node)
    h.add_edges_from((p, s) for p in preds for s in succs if p != s)
    return h


def exact_log_reliability_factoring(rbd: RBD) -> float:
    """Exact log-reliability by pivotal decomposition (factoring).

    ``F(G) = r_x F(G | x up) + f_x F(G | x down)`` with the pivot chosen
    on a shortest ``S -> D`` path; recursion bottoms out when no blocks
    remain between S and D (failure 0) or S cannot reach D (failure 1).
    Memoized on the surviving block set.
    """
    failures = {n: rbd.block(n).failure for n in rbd.blocks}
    rels = {n: rbd.block(n).reliability for n in rbd.blocks}
    memo: dict[frozenset, float] = {}

    def failure_of(g: nx.DiGraph) -> float:
        # Contract/delete operations commute, but different removal
        # partitions can leave the same block set with different wiring,
        # so the memo key must identify the full graph.
        key = frozenset(g.edges) | frozenset((n,) for n in g.nodes)
        if key in memo:
            return memo[key]
        if not nx.has_path(g, SOURCE, DEST):
            memo[key] = 1.0
            return 1.0
        # A working path with no blocks on it?
        path = nx.shortest_path(g, SOURCE, DEST)
        interior = [n for n in path if n not in (SOURCE, DEST)]
        if not interior:
            memo[key] = 0.0
            return 0.0
        pivot = interior[0]
        up = failure_of(_contract(g, pivot))
        g_down = g.copy()
        g_down.remove_node(pivot)
        down = failure_of(g_down)
        out = rels[pivot] * up + failures[pivot] * down
        memo[key] = out
        return out

    f = failure_of(rbd.graph)
    return logrel.from_failure(min(max(f, 0.0), 1.0))


def minimal_path_sets(rbd: RBD) -> list[frozenset]:
    """Inclusion-minimal block sets whose joint operation connects S to D."""
    sets = [frozenset(p) for p in rbd.simple_paths()]
    return _inclusion_minimal(sets)


def minimal_cut_sets(rbd: RBD, max_blocks: int = 48) -> list[frozenset]:
    """Inclusion-minimal block sets whose joint failure disconnects S from D.

    Computed as the minimal hitting sets ("transversals") of the minimal
    path sets, by iterated expansion — exact, and practical at the
    paper's diagram sizes (cf. Jensen & Bellmore [24]: the number of
    minimal cuts can be exponential, which is the paper's argument for
    routing operations).
    """
    if rbd.n_blocks > max_blocks:
        raise ValueError(f"{rbd.n_blocks} blocks exceed the cut-set cap ({max_blocks})")
    paths = minimal_path_sets(rbd)
    if not paths:
        return []
    # Iteratively build minimal transversals of the path hypergraph.
    transversals: list[frozenset] = [frozenset()]
    for path in paths:
        new: list[frozenset] = []
        for t in transversals:
            if t & path:
                new.append(t)
            else:
                for b in path:
                    new.append(t | {b})
        transversals = _inclusion_minimal(new)
    return sorted(transversals, key=lambda s: (len(s), sorted(map(str, s))))


def _inclusion_minimal(sets: Iterable[frozenset]) -> list[frozenset]:
    uniq = sorted(set(sets), key=len)
    out: list[frozenset] = []
    for s in uniq:
        if not any(kept < s or kept == s for kept in out):
            out.append(s)
    return out


def cut_set_lower_bound(rbd: RBD) -> float:
    """The paper's serial-composition-of-minimal-cuts approximation.

    Each minimal cut contributes a parallel block group; the groups are
    composed in series.  FKG gives ``result <= exact`` (log domain).
    """
    cuts = minimal_cut_sets(rbd)
    return logrel.serial(
        logrel.parallel([rbd.block(b).log_reliability for b in cut]) for cut in cuts
    )


def path_set_upper_bound(  # repro-lint: disable=API001 twin of the §4 cut-set bound
    rbd: RBD,
) -> float:
    """Parallel composition of minimal path sets: an upper bound (FKG)."""
    paths = minimal_path_sets(rbd)
    return logrel.parallel(
        logrel.serial(rbd.block(b).log_reliability for b in path) for path in paths
    )
