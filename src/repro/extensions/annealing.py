"""Simulated-annealing mapper — a Section 9 "future work" heuristic.

The paper closes asking for "the design of heuristics for even more
difficult problems".  This module contributes a local-search baseline
that works on *any* platform and optimizes reliability under period and
latency bounds directly, instead of through the two-step
division/allocation decomposition of Section 7.  It is deliberately
simple (Metropolis acceptance over a small neighbourhood) and serves
two purposes: a quality yardstick for Heur-L/Heur-P on heterogeneous
instances (`benchmarks/bench_extension_annealing.py`), and a
demonstration that the library's evaluation layer supports custom
search loops.

Search space: complete mappings (cut set + disjoint replica sets).
Neighbourhood moves:

* shift an interval boundary by one task;
* split an interval / merge two adjacent intervals;
* add an idle processor to an interval (respecting ``K``);
* remove a replica (if the interval keeps one);
* swap an enrolled processor with an idle one.

Objective: maximized score = ``-log10(failure probability)`` (a
well-scaled, monotone transform of reliability — raw log-reliability
differences can be ~1e-20, useless for Metropolis temperatures), with a
linear penalty per unit of relative bound violation, so the search can
traverse infeasible regions but is pulled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.heuristics import heuristic_best
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import MappingEvaluation, evaluate_mapping
from repro.core.interval import partition_from_cuts
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util.rng import ensure_rng
from repro.util.validation import check_bound

__all__ = ["anneal_mapping", "AnnealingStats"]

#: Penalty weight per unit of *relative* bound violation.
PENALTY = 50.0


@dataclass(frozen=True)
class AnnealingStats:
    """Diagnostics of one annealing run."""

    iterations: int
    accepted: int
    improved: int
    initial_score: float
    final_score: float


def _score(ev: MappingEvaluation, max_period: float, max_latency: float) -> float:
    """Well-scaled objective: -log10(failure) minus violation penalties."""
    f = ev.failure_probability
    base = 320.0 if f <= 0.0 else -math.log10(max(f, 1e-320))
    penalty = 0.0
    if math.isfinite(max_period) and ev.worst_case_period > max_period:
        penalty += PENALTY * (ev.worst_case_period / max_period - 1.0) + PENALTY
    if math.isfinite(max_latency) and ev.worst_case_latency > max_latency:
        penalty += PENALTY * (ev.worst_case_latency / max_latency - 1.0) + PENALTY
    return base - penalty


def _feasible(ev: MappingEvaluation, max_period: float, max_latency: float) -> bool:
    return ev.meets(max_period=max_period, max_latency=max_latency)


class _State:
    """Mutable search state: cuts + per-interval replica lists."""

    def __init__(self, chain: TaskChain, platform: Platform, mapping: Mapping):
        self.chain = chain
        self.platform = platform
        self.cuts = [iv.stop for iv in mapping.intervals[:-1]]
        self.replicas = [list(r) for r in mapping.replicas]

    def to_mapping(self) -> Mapping:
        partition = partition_from_cuts(self.chain.n, self.cuts)
        return Mapping(
            self.chain,
            self.platform,
            [(iv, tuple(r)) for iv, r in zip(partition, self.replicas)],
        )

    def copy(self) -> "_State":
        clone = object.__new__(_State)
        clone.chain, clone.platform = self.chain, self.platform
        clone.cuts = list(self.cuts)
        clone.replicas = [list(r) for r in self.replicas]
        return clone

    def idle_processors(self) -> list[int]:
        used = {u for r in self.replicas for u in r}
        return [u for u in range(self.platform.p) if u not in used]

    # -- neighbourhood moves (each returns True if it changed the state) --

    def shift_cut(self, rng) -> bool:
        if not self.cuts:
            return False
        i = int(rng.integers(len(self.cuts)))
        delta = 1 if rng.random() < 0.5 else -1
        new = self.cuts[i] + delta
        lo = self.cuts[i - 1] + 1 if i > 0 else 1
        hi = self.cuts[i + 1] - 1 if i + 1 < len(self.cuts) else self.chain.n - 1
        if not lo <= new <= hi:
            return False
        self.cuts[i] = new
        return True

    def split_interval(self, rng) -> bool:
        idle = self.idle_processors()
        if not idle:
            return False
        partition = partition_from_cuts(self.chain.n, self.cuts)
        candidates = [j for j, iv in enumerate(partition) if len(iv) > 1]
        if not candidates:
            return False
        j = int(rng.choice(candidates))
        iv = partition[j]
        cut = int(rng.integers(iv.start + 1, iv.stop))
        self.cuts.insert(j, cut)
        self.cuts.sort()
        # New interval inherits one idle processor.
        self.replicas.insert(j + 1, [int(rng.choice(idle))])
        return True

    def merge_intervals(self, rng) -> bool:
        if not self.cuts:
            return False
        i = int(rng.integers(len(self.cuts)))
        del self.cuts[i]
        keep, drop = self.replicas[i], self.replicas[i + 1]
        # Keep the merged interval's replicas within K.
        merged = (keep + drop)[: self.platform.max_replication]
        self.replicas[i] = merged
        del self.replicas[i + 1]
        return True

    def add_replica(self, rng) -> bool:
        idle = self.idle_processors()
        candidates = [
            j
            for j, r in enumerate(self.replicas)
            if len(r) < self.platform.max_replication
        ]
        if not idle or not candidates:
            return False
        j = int(rng.choice(candidates))
        self.replicas[j].append(int(rng.choice(idle)))
        return True

    def drop_replica(self, rng) -> bool:
        candidates = [j for j, r in enumerate(self.replicas) if len(r) > 1]
        if not candidates:
            return False
        j = int(rng.choice(candidates))
        k = int(rng.integers(len(self.replicas[j])))
        del self.replicas[j][k]
        return True

    def swap_processor(self, rng) -> bool:
        idle = self.idle_processors()
        if not idle:
            return False
        j = int(rng.integers(len(self.replicas)))
        k = int(rng.integers(len(self.replicas[j])))
        self.replicas[j][k] = int(rng.choice(idle))
        return True


_MOVES = (
    _State.shift_cut,
    _State.split_interval,
    _State.merge_intervals,
    _State.add_replica,
    _State.drop_replica,
    _State.swap_processor,
)


def _initial_state(
    chain: TaskChain, platform: Platform, max_period: float, max_latency: float
) -> Mapping:
    heur = heuristic_best(
        chain, platform, max_period=max_period, max_latency=max_latency
    )
    if heur.feasible:
        assert heur.mapping is not None
        return heur.mapping
    # Fall back: whole chain on the fastest processor.
    fastest = int(np.argmax(platform.speeds))
    from repro.core.interval import Interval

    return Mapping(chain, platform, [(Interval(0, chain.n), (fastest,))])


def anneal_mapping(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    iterations: int = 2000,
    initial_temperature: float = 2.0,
    cooling: float = 0.999,
    rng: "int | None | np.random.Generator" = None,
    initial: Mapping | None = None,
) -> SolveResult:
    """Search for a reliable mapping under bounds by simulated annealing.

    Parameters
    ----------
    iterations:
        Total Metropolis steps (each evaluates at most one neighbour).
    initial_temperature, cooling:
        Geometric schedule ``T_k = T_0 * cooling^k`` over a score that
        lives in "orders of magnitude of failure probability" units.
    initial:
        Optional warm start; defaults to the Section 7 heuristics'
        result (or the whole chain on the fastest processor when they
        fail).

    Returns
    -------
    SolveResult
        The best *feasible* mapping encountered, or infeasible if none
        was ever visited.  ``details["stats"]`` carries an
        :class:`AnnealingStats`.
    """
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0 < cooling <= 1:
        raise ValueError("cooling must be in (0, 1]")
    gen = ensure_rng(rng)
    start = initial if initial is not None else _initial_state(
        chain, platform, max_period, max_latency
    )
    state = _State(chain, platform, start)
    current_ev = evaluate_mapping(state.to_mapping())
    current_score = _score(current_ev, max_period, max_latency)
    initial_score = current_score

    best: tuple[float, Mapping, MappingEvaluation] | None = None
    if _feasible(current_ev, max_period, max_latency):
        m = state.to_mapping()
        best = (current_score, m, current_ev)

    T = initial_temperature
    accepted = improved = 0
    for _ in range(iterations):
        T *= cooling
        move = _MOVES[int(gen.integers(len(_MOVES)))]
        candidate = state.copy()
        if not move(candidate, gen):
            continue
        try:
            mapping = candidate.to_mapping()
        except ValueError:
            continue  # move produced an invalid mapping (e.g. K overflow)
        ev = evaluate_mapping(mapping)
        score = _score(ev, max_period, max_latency)
        delta = score - current_score
        if delta >= 0 or gen.random() < math.exp(delta / max(T, 1e-12)):
            state, current_ev, current_score = candidate, ev, score
            accepted += 1
            if _feasible(ev, max_period, max_latency) and (
                best is None or score > best[0]
            ):
                best = (score, mapping, ev)
                improved += 1

    stats = AnnealingStats(
        iterations=iterations,
        accepted=accepted,
        improved=improved,
        initial_score=initial_score,
        final_score=current_score,
    )
    if best is None:
        return SolveResult.infeasible("annealing", stats=stats)
    return SolveResult(
        feasible=True,
        mapping=best[1],
        evaluation=best[2],
        method="annealing",
        details={"stats": stats},
    )
