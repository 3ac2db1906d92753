"""Energy as a fourth criterion — the Section 9 "power consumption"
future-work direction.

Model: the standard dynamic-power abstraction used throughout the DVFS
literature the paper cites ([31], [39]): running a processor at speed
``s`` dissipates power ``P_dyn = s^alpha`` (``alpha = 3`` by default),
so executing work ``W`` takes ``W / s`` time and costs
``W / s * s^alpha = W * s^(alpha-1)`` energy units.  Communications
cost ``o / b * P_link`` with a fixed per-link transfer power.

Replication multiplies energy: *every* replica executes *every* data
set (Section 2.5), so an interval replicated on processors ``P_I``
costs ``sum_{u in P_I} W * s_u^(alpha-1)`` per data set — the explicit
reliability/energy trade-off.

:func:`energy_aware_alloc_het` extends the Section 7.2 allocation with
an energy budget: replicas keep being added by best reliability ratio,
but only while the mapping's energy stays within the budget.

:func:`minimize_energy` turns the model into the facade's fourth
objective (``Problem(objective="energy")``): minimize energy subject to
the period/latency bounds and a reliability floor.  Candidates come
from the Section 7 heuristics (which maximize reliability within the
bounds), then a *replica-thinning* pass strips replicas greedily —
every replica strictly adds energy and removing one can only improve
the worst-case period/latency — while the floor still holds.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.algorithms.allocation import _log_gain, _seed_het
from repro.core.chain import TaskChain
from repro.core.evaluation import evaluate_mapping
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util import logrel
from repro.util.validation import check_bound, check_log_floor

__all__ = ["mapping_energy", "energy_aware_alloc_het", "minimize_energy"]


def mapping_energy(
    mapping: Mapping,
    alpha: float = 3.0,
    link_power: float = 1.0,
) -> float:
    """Energy per data set of a mapping (dynamic power model).

    ``sum_j sum_{u in P_j} W_j * s_u^(alpha-1)
    + sum_j o_{l_j} / b * link_power * (hops)``, with one hop per
    replica of the sending interval (each replica transmits its result
    to the routing operation).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")
    platform = mapping.platform
    total = 0.0
    for j, (_iv, procs) in enumerate(mapping):
        work = mapping.interval_work(j)
        for u in procs:
            total += work * float(platform.speeds[u]) ** (alpha - 1.0)
        out = mapping.interval_output(j)
        if j < mapping.m - 1 and out > 0:
            total += out / platform.bandwidth * link_power * len(procs)
    return total


def energy_aware_alloc_het(  # repro-lint: disable=API001 used by examples/
    chain: TaskChain,
    platform: Platform,
    partition: Sequence[Interval],
    max_period: float = math.inf,
    max_energy: float = math.inf,
    alpha: float = 3.0,
    link_power: float = 1.0,
    allowed: Callable[[int, int], bool] | None = None,
) -> Mapping | None:
    """Section 7.2 allocation with an additional energy budget.

    Phase 1 seeds every interval exactly as in
    :func:`repro.algorithms.allocation.algo_alloc_het` (the seeds are
    mandatory — without them there is no mapping at all); phase 2 adds
    replicas by best reliability-improvement ratio *per unit of added
    energy*, skipping any addition that would exceed *max_energy*.

    Returns ``None`` when no seeding exists or the seeds alone blow the
    budget.
    """
    partition = list(partition)
    seeding = _seed_het(chain, platform, partition, max_period, allowed)
    if seeding is None:
        return None
    works, branch, fits = seeding.works, seeding.branch, seeding.fits
    replicas, stage_log_fail = seeding.replicas, seeding.stage_log_fail
    m, K, b = len(partition), platform.max_replication, platform.bandwidth
    speeds = platform.speeds
    outs = [chain.output_of(iv.stop) for iv in partition]

    def added_energy(u: int, j: int) -> float:
        energy = works[j] * float(speeds[u]) ** (alpha - 1.0)
        if j < m - 1 and outs[j] > 0:
            energy += outs[j] / b * link_power
        return energy

    energy_used = 0.0
    for u, j in seeding.seeds:
        energy_used += added_energy(u, j)
    if energy_used > max_energy:
        return None

    for u in seeding.leftovers:
        best_j, best_score = -1, 0.0
        for j in range(m):
            if len(replicas[j]) >= K or not fits(u, j):
                continue
            cost = added_energy(u, j)
            if energy_used + cost > max_energy:
                continue
            lf_new = stage_log_fail[j] + logrel.log_failure(branch(u, j))
            gain = _log_gain(stage_log_fail[j], lf_new)
            score = gain / max(cost, 1e-300)
            if score > best_score:
                best_j, best_score = j, score
        if best_j >= 0:
            replicas[best_j].append(u)
            stage_log_fail[best_j] += logrel.log_failure(branch(u, best_j))
            energy_used += added_energy(u, best_j)

    return Mapping(
        chain, platform, [(iv, tuple(sorted(r))) for iv, r in zip(partition, replicas)]
    )


def _thin_replicas(
    mapping: Mapping,
    min_log_reliability: float,
    alpha: float,
    link_power: float,
) -> Mapping:
    """Greedily strip replicas while the reliability floor still holds.

    Every replica strictly adds energy (its compute term, plus a link
    term for non-final intervals), and removing one can only *improve*
    the worst-case period and latency (the slowest replica of an
    interval is removed or untouched) — so thinning moves monotonically
    toward lower energy through bound-preserving mappings.  Each round
    removes the replica with the largest energy saving among those
    whose removal keeps the floor; stops when none qualifies.
    """
    assignment = [(iv, list(procs)) for iv, procs in mapping]

    def build(drop: "tuple[int, int] | None" = None) -> Mapping:
        return Mapping(
            mapping.chain,
            mapping.platform,
            [
                (
                    iv,
                    tuple(
                        u
                        for ri, u in enumerate(r)
                        if drop is None or (jj, ri) != drop
                    ),
                )
                for jj, (iv, r) in enumerate(assignment)
            ],
        )

    while True:
        current_energy = mapping_energy(build(), alpha, link_power)
        best = None  # (saving, interval index, replica index)
        for j, (_iv, procs) in enumerate(assignment):
            if len(procs) <= 1:
                continue
            for ri in range(len(procs)):
                candidate = build(drop=(j, ri))
                if evaluate_mapping(candidate).log_reliability < min_log_reliability:
                    continue
                saving = current_energy - mapping_energy(candidate, alpha, link_power)
                if best is None or saving > best[0]:
                    best = (saving, j, ri)
        if best is None:
            break
        _saving, j, ri = best
        assignment[j][1].pop(ri)
    return build()


def minimize_energy(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    min_log_reliability: float = -math.inf,
    alpha: float = 3.0,
    link_power: float = 1.0,
) -> "SolveResult":
    """Greedy energy minimization under bounds and a reliability floor.

    Candidate mappings come from the two Section 7 heuristics
    (``heur-l`` / ``heur-p`` with feasible-best selection); each
    candidate that meets the bounds and the floor is replica-thinned
    (:func:`_thin_replicas`) and the cheapest survivor wins, ties
    broken toward higher reliability.  A heuristic, like the Section 7
    algorithms it builds on: it may miss a feasible mapping on hard
    instances, but never returns one that violates a bound or the
    floor.  Works on any platform (homogeneous or not).

    Returns
    -------
    A :class:`~repro.algorithms.result.SolveResult` whose ``details``
    carry ``energy`` (the winning mapping's energy), ``alpha``, and
    ``link_power``.
    """
    from repro.algorithms.heuristics import heuristic_best
    from repro.algorithms.result import SolveResult

    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    min_log_reliability = check_log_floor(min_log_reliability)
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha!r}")

    best: "tuple[float, float, Mapping] | None" = None  # (energy, -logrel, mapping)
    explored = 0
    for which in ("heur-l", "heur-p"):
        seed = heuristic_best(
            chain, platform,
            max_period=max_period, max_latency=max_latency,
            which=which, selection="feasible-best",
        )
        if not seed.feasible:
            continue
        assert seed.mapping is not None
        if seed.log_reliability < min_log_reliability:
            # The bounds-respecting reliability maximum misses the
            # floor; no thinning of this candidate can recover it.
            continue
        thinned = _thin_replicas(
            seed.mapping, min_log_reliability, alpha, link_power
        )
        explored += 1
        ev = evaluate_mapping(thinned)
        energy = mapping_energy(thinned, alpha, link_power)
        key = (energy, -ev.log_reliability)
        if best is None or key < (best[0], best[1]):
            best = (energy, -ev.log_reliability, thinned)

    if best is None:
        return SolveResult.infeasible(
            "energy-greedy",
            min_log_reliability=min_log_reliability,
            max_period=max_period,
            max_latency=max_latency,
        )
    energy, _neg, mapping = best
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="energy-greedy",
        details={
            "energy": energy,
            "alpha": alpha,
            "link_power": link_power,
            "candidates": explored,
        },
    )
