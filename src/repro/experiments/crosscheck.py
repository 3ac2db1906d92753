"""The validation-chain experiment: every representation of reliability
must tell one story.

The reproduction commits to a validation chain (README, "Tests") —

    brute force  ⊇  Pareto-DP  ⊇  ILP(HiGHS)  ⊇  ILP(branch-and-bound)
    Eq. (9)  ==  routed RBD (series-parallel  ==  factoring  ==  enumeration)
    simulation  ~  Eq. (9)   (within confidence intervals)

— and, since the facade went tri-criteria, the converse-objective links

    dp-period   ==  brute force(objective="period")
    dp-latency  ==  brute force(objective="latency")
    energy-greedy  ⊆  brute force(objective="energy")   (bounds + floor honored)

— and the unit tests check each link on fixed instances.  This module
runs the *whole chain* over a randomized instance population and
produces a machine-checkable report, so a regression anywhere in the
stack shows up as a disagreement count.  It doubles as a benchmark
target (`benchmarks/bench_crosscheck.py`) and as the recommended smoke
test after modifying any numerical code.

Each instance's check is independent and fully determined by one
integer seed (drawn via :func:`repro.util.rng.spawn_seeds`); instances
run in order, in the calling process.

The population defaults to this module's own brute-force-friendly
random instances, but any *homogeneous* declarative scenario
(:mod:`repro.scenarios`) can supply the distributions instead
(``scenario=...``): its work/output/speed/failure draws are used at
the cross-check's small sizes, with period/latency bounds derived per
instance from an unbounded heuristic solve.  Heterogeneous scenarios
are rejected up front — the chain's exact solvers are Section 5
algorithms, and running them out of scope would report false
disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core import random_chain
from repro.core.evaluation import mapping_log_reliability
from repro.core.platform import Platform
from repro.rbd import (
    exact_log_reliability_enumeration,
    exact_log_reliability_factoring,
    rbd_with_routing,
    series_parallel_log_reliability,
)
from repro.simulation import simulate_mapping
from repro.solve import Problem, solve
from repro.util.rng import ensure_rng, spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.chain import TaskChain
    from repro.scenarios.registry import Scenario
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["CrosscheckReport", "run_crosscheck"]

#: Relative tolerance for exact-method agreement on log-reliabilities.
EXACT_RTOL = 1e-6


@dataclass
class CrosscheckReport:
    """Aggregate outcome of one cross-check run."""

    instances: int = 0
    solver_disagreements: int = 0
    heuristic_violations: int = 0
    rbd_disagreements: int = 0
    simulation_outliers: int = 0
    objective_disagreements: int = 0
    details: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True iff no hard invariant was violated (simulation outliers
        are tolerated at the ~5% CI rate, checked by the caller)."""
        return (
            self.solver_disagreements == 0
            and self.heuristic_violations == 0
            and self.rbd_disagreements == 0
            and self.objective_disagreements == 0
        )

    def summary(self) -> str:
        return (
            f"{self.instances} instances: "
            f"{self.solver_disagreements} solver disagreements, "
            f"{self.heuristic_violations} heuristic violations, "
            f"{self.rbd_disagreements} RBD disagreements, "
            f"{self.objective_disagreements} objective disagreements, "
            f"{self.simulation_outliers} simulation CI misses"
        )


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= EXACT_RTOL * max(abs(a), abs(b), 1e-300)


def _check_instance(
    seed: int,
    n_tasks: int,
    p: int,
    simulate: bool,
    instance: "tuple[TaskChain, Platform] | None" = None,
) -> dict:
    """Run the full validation chain on one seeded instance.

    Returns a flat record :func:`run_crosscheck` merges into the
    :class:`CrosscheckReport` in instance order.  When *instance* is a
    ``(chain, platform)`` pair (the scenario-driven population), it is
    used instead of this function's own random instance, and the
    (P, L) bounds are derived from an unbounded heuristic solve so they
    land in the feasibility transition region regardless of the
    scenario's cost scales.
    """
    rng = np.random.default_rng(seed)
    record = {
        "solver_disagreement": False,
        "heuristic_violation": False,
        "rbd_disagreement": False,
        "simulation_outlier": False,
        "objective_disagreement": False,
        "details": [],
    }
    if instance is not None:
        chain, platform = instance
        reference = solve(Problem(chain, platform), method="heuristic")
        if not reference.feasible:  # pragma: no cover - unbounded heur always maps
            record["details"].append("unbounded heuristic found no mapping")
            return record
        ev = reference.evaluation
        P = float(ev.worst_case_period) * float(rng.uniform(0.8, 2.0))
        L = float(ev.worst_case_latency) * float(rng.uniform(0.8, 2.0))
    else:
        chain = random_chain(n_tasks, rng)
        K = int(rng.integers(1, 4))
        platform = Platform.homogeneous_platform(
            p,
            failure_rate=10.0 ** -float(rng.uniform(2, 8)),
            link_failure_rate=10.0 ** -float(rng.uniform(2, 5)),
            max_replication=K,
        )
        P = float(rng.uniform(40, 400))
        L = float(rng.uniform(150, 900))
    problem = Problem(chain, platform, max_period=P, max_latency=L)

    # --- exact solver agreement ---------------------------------
    bf = solve(problem, method="brute-force")
    pd = solve(problem, method="pareto-dp")
    hi = solve(problem, method="ilp")
    bb = solve(problem, method="ilp-bb")
    values = [bf, pd, hi, bb]
    if len({v.feasible for v in values}) != 1 or (
        bf.feasible
        and not all(
            _close(v.log_reliability, bf.log_reliability) for v in values
        )
    ):
        record["solver_disagreement"] = True
        record["details"].append(
            f"solvers disagree: {[v.log_reliability for v in values]}"
        )
        return record

    # --- heuristic sanity -----------------------------------------
    heur = solve(problem, method="heuristic")
    if heur.feasible and (
        not bf.feasible or heur.log_reliability > bf.log_reliability + 1e-12
    ):
        record["heuristic_violation"] = True
        record["details"].append("heuristic beat the optimum or bounds")

    if not bf.feasible:
        return record
    mapping = bf.mapping
    assert mapping is not None

    # --- converse objectives (tri-criteria facade) ----------------
    # A floor strictly below the bounded optimum keeps every converse
    # problem feasible (the bf mapping itself witnesses it), so the
    # exact methods must agree with the objective-aware oracle.
    floor_ell = bf.log_reliability * float(rng.uniform(1.0, 2.0))
    floor = float(math.exp(floor_ell))
    if floor >= 1.0:  # pragma: no cover - positive failure rates
        floor = 0.0
    for objective, exact_name, bound_kw in (
        ("period", "dp-period", {"max_latency": L}),
        ("latency", "dp-latency", {"max_period": P}),
    ):
        converse = Problem(
            chain, platform,
            objective=objective, min_reliability=floor, **bound_kw,
        )
        oracle = solve(converse, method="brute-force")
        exact = solve(converse, method=exact_name)
        if exact.feasible != oracle.feasible or (
            oracle.feasible
            and not _close(
                exact.objective_value(objective),
                oracle.objective_value(objective),
            )
        ):
            record["objective_disagreement"] = True
            record["details"].append(
                f"{exact_name} disagrees with brute force: "
                f"{exact.objective_value(objective)} vs "
                f"{oracle.objective_value(objective)}"
            )
    energy_problem = Problem(
        chain, platform,
        max_period=P, max_latency=L,
        objective="energy", min_reliability=floor,
    )
    oracle = solve(energy_problem, method="brute-force")
    greedy = solve(energy_problem, method="energy-greedy")
    if greedy.feasible:
        ev = greedy.evaluation
        assert ev is not None
        # The greedy may miss a feasible mapping (it is a Section 7
        # heuristic at heart) but must never undercut the exact
        # optimum or violate the bounds/floor it was given.
        if (
            not ev.meets(
                max_period=P, max_latency=L,
                min_log_reliability=energy_problem.min_log_reliability,
            )
            or greedy.objective_value("energy")
            < oracle.objective_value("energy") * (1.0 - EXACT_RTOL)
        ):
            record["objective_disagreement"] = True
            record["details"].append(
                f"energy-greedy beat the oracle or broke its bounds: "
                f"{greedy.objective_value('energy')} vs "
                f"{oracle.objective_value('energy')}"
            )

    # --- RBD representations -------------------------------------
    want = mapping_log_reliability(mapping)
    rbd = rbd_with_routing(mapping)
    candidates = [
        series_parallel_log_reliability(rbd),
        exact_log_reliability_factoring(rbd),
    ]
    if rbd.n_blocks <= 20:
        candidates.append(exact_log_reliability_enumeration(rbd))
    if not all(_close(c, want) for c in candidates):
        record["rbd_disagreement"] = True
        record["details"].append(f"RBD evaluators disagree: {candidates} vs {want}")

    # --- simulation ------------------------------------------------
    if simulate:
        summary = simulate_mapping(mapping, n_datasets=1500, rng=rng)
        if not summary.reliability_consistent:
            record["simulation_outlier"] = True
    return record


def run_crosscheck(  # repro-lint: disable=API001 served by repro.experiments.__getattr__
    n_instances: int = 10,
    seed: int = 0,
    n_tasks: int = 5,
    p: int = 4,
    simulate: bool = True,
    scenario: "str | ScenarioSpec | Scenario | None" = None,
) -> CrosscheckReport:
    """Run the full validation chain over a random instance population.

    Instance sizes default to brute-force-friendly values; every exact
    method solves the same :class:`~repro.solve.Problem` per instance,
    at randomized (P, L) bounds, through the
    :func:`repro.solve.solve` facade, and the converse-objective links
    (period-/latency-minimizing DPs against the objective-aware brute
    force, the energy greedy's bounds and optimality invariants) are
    checked at a randomized reliability floor below each instance's
    bounded optimum.

    Parameters
    ----------
    scenario:
        Optional scenario-driven population: a registered scenario
        name, a bare :class:`~repro.scenarios.spec.ScenarioSpec` (e.g.
        loaded from a file), or a registry
        :class:`~repro.scenarios.registry.Scenario` — anything
        :func:`repro.scenarios.resolve_scenario` accepts.  ``None``
        (default) keeps this module's own uniform random population.

        A scenario's *distributions* (work, output, speeds, failure
        rates) drive the population at this function's
        brute-force-friendly sizes: ``n_tasks``/``p`` override the
        spec's dimensions, which would dwarf the exact solvers, and
        sweep-axis specs are sampled evenly across their variants so
        every regime retains coverage.  Per-instance (P, L) bounds are
        derived from an unbounded heuristic solve, so they land in the
        feasibility transition region regardless of the scenario's
        cost scales.  The scenario must generate homogeneous platforms
        (:func:`~repro.scenarios.spec.spec_is_homogeneous`): the
        chain's exact solvers are Section 5 algorithms, and running
        them out of scope would report false disagreements —
        heterogeneous scenarios raise ``ValueError`` up front.
    """
    pairs: "list[tuple[TaskChain, Platform] | None]" = [None] * n_instances
    if scenario is not None:
        from repro.scenarios import (
            generate_ensembles,
            resolve_scenario,
            spec_is_homogeneous,
        )

        spec, _ = resolve_scenario(scenario)
        if not spec_is_homogeneous(spec):
            raise ValueError(
                f"cross-check needs a homogeneous scenario (the exact solvers "
                f"implement Section 5 algorithms); scenario {spec.name!r} "
                f"generates heterogeneous platforms"
            )
        sized = spec.with_(n_tasks=n_tasks, p=p, n_instances=n_instances)
        rows = [(e, r) for e in generate_ensembles(sized, seed=seed) for r in range(len(e))]
        if len(rows) > n_instances:
            # Sweep-axis specs expand to len(variants) * n_instances
            # instances; keep the population at n_instances but sample
            # it evenly so every variant regime retains coverage
            # instead of silently checking only the first variant.
            chosen = np.linspace(0, len(rows) - 1, n_instances).round().astype(int)
            rows = [rows[i] for i in chosen]
        # The chosen rows materialize here (and only here) — the
        # cross-check genuinely solves every instance.
        pairs = [e[r] for e, r in rows]
    seeds = spawn_seeds(ensure_rng(seed), n_instances)
    report = CrosscheckReport()
    for s, pair in zip(seeds, pairs):
        record = _check_instance(s, n_tasks, p, simulate, pair)
        report.instances += 1
        report.solver_disagreements += record["solver_disagreement"]
        report.heuristic_violations += record["heuristic_violation"]
        report.rbd_disagreements += record["rbd_disagreement"]
        report.simulation_outliers += record["simulation_outlier"]
        report.objective_disagreements += record["objective_disagreement"]
        report.details.extend(record["details"])

    return report
