"""Scenario-aware method planning: which solvers, in which order, and why.

``repro scenario run`` used to hard-code its method list; scaling the
declarative workload layer past the paper's dimensions (the ROADMAP's
``scaling-stress``-sized ensembles) needs the selection itself to be
derived from data.  The :class:`Planner` crosses a workload's
dimensions (a :class:`~repro.scenarios.spec.ScenarioSpec`, including
sweep axes) with the method registry's capability metadata
(``homogeneous_only``, ``exact``, ``cost_hint``, ``tags``) and
produces a :class:`Plan`: the applicable methods in expensive-first
order (matching the harness's pool scheduling) plus a
:class:`MethodSkip` record — *with a reason* — for every method it
dropped.  Plans are what ``repro plan show`` prints and what the
scenario-run manifest embeds, so a run is always explainable after the
fact.

Selection rules
---------------
Hard capability gates (applied to an explicit method list too):

* methods that do not declare the plan's *objective* (see
  :data:`repro.solve.OBJECTIVES` and ``Method.objectives``) are
  dropped — a reliability heuristic cannot answer a period-minimizing
  plan;
* ``homogeneous_only`` methods are dropped for scenarios that generate
  heterogeneous platforms;
* ``exact`` methods are dropped past the size thresholds
  (:data:`MAX_EXACT_TASKS` × :data:`MAX_EXACT_PROCS`) — exact solvers
  on ``scaling-stress``-sized chains would dominate the run.  An exact
  method with a batched kernel (``solve_batch``: ``pareto-dp``,
  ``dp-latency``, ``dp-period``) that the method list names explicitly
  is held to the larger :data:`MAX_BATCHED_EXACT_TASKS` ×
  :data:`MAX_BATCHED_EXACT_PROCS` instead; ``brute-force``, ``ilp``
  and ``ilp-bb`` have no kernel and keep the first threshold;
* a method with its own size limit (``Method.size_check``:
  ``brute-force``'s search-space budget) is dropped when that limit
  refuses the scenario's largest variant, with the method's own reason.

Auto-discovery rules (applied only when no explicit method list is
given):

* methods tagged ``"manual"`` are never auto-selected;
* methods tagged ``"paired"`` (the paper's het-experiment heuristics)
  are auto-selected only for paired Section 8.2-style scenarios;
* among the surviving exact methods only the cheapest (by
  ``cost_hint``) is kept — they prove the same optimum, so running
  several would only re-derive the same curve slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs import telemetry as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.methods import Method

__all__ = ["MethodSkip", "Plan", "Planner"]

#: Size thresholds past which ``exact`` methods are dropped.  They admit
#: the paper's dimensions (15 tasks x 10 processors) with headroom and
#: reject ``scaling-stress``-sized workloads.
MAX_EXACT_TASKS = 18
MAX_EXACT_PROCS = 12

#: Size thresholds for an explicitly named exact method with a batched
#: kernel: the largest size its cost was measured at.  A 120-task x
#: 32-processor spec (50 instances, 8-point auto grid) runs in 11 s
#: (``pareto-dp``, ``dp-latency``) to 45 s (``dp-period``) with at most
#: 120 MB peak RSS on a 2-vCPU machine; the builtin ``long-chain``
#: (120 x 10) and ``scaling-stress`` (up to 80 x 32) fit.
MAX_BATCHED_EXACT_TASKS = 120
MAX_BATCHED_EXACT_PROCS = 32


@dataclass(frozen=True)
class MethodSkip:
    """One dropped method and the reason it was dropped."""

    method: str
    reason: str


@dataclass(frozen=True)
class Plan:
    """A planner verdict: what to run (ordered) and what was skipped (why).

    Attributes
    ----------
    scenario:
        The workload's name.
    spec_hash:
        The spec's content hash (:func:`repro.scenarios.scenario_hash`)
        — ties the plan to the exact workload it was made for.
    objective:
        The :data:`repro.solve.OBJECTIVES` entry the plan was built
        for; every selected method declares it.
    selected:
        Method names in execution order (expensive-first by
        ``cost_hint``, ties broken by name — the same order the
        parallel harness schedules units in).
    skipped:
        A :class:`MethodSkip` per dropped method, in candidate order.
    """

    scenario: str
    spec_hash: str
    selected: tuple[str, ...]
    skipped: tuple[MethodSkip, ...]
    objective: str = "reliability"

    def methods(self) -> "list[Method]":
        """Resolve the selected names against the live registry."""
        from repro.experiments.methods import get_method

        return [get_method(name) for name in self.selected]

    def describe(self) -> dict[str, Any]:
        """Flat JSON-ready record for manifests and ``repro plan show``."""
        from repro.experiments.methods import METHODS

        return {
            "scenario": self.scenario,
            "spec_hash": self.spec_hash,
            "objective": self.objective,
            "selected": list(self.selected),
            "batched": [
                name
                for name in self.selected
                if METHODS.get(name) is not None
                and METHODS[name].solve_batch is not None
            ],
            "skipped": [
                {"method": s.method, "reason": s.reason} for s in self.skipped
            ],
        }

    def summary(self) -> str:
        """Human-readable multi-line rendering (CLI output)."""
        from repro.experiments.methods import METHODS

        lines = [
            f"plan for scenario {self.scenario!r} "
            f"(objective {self.objective!r}, spec {self.spec_hash[:12]}…):"
        ]
        for rank, name in enumerate(self.selected, 1):
            method = METHODS.get(name)
            meta = (
                f"cost_hint={method.cost_hint:g}"
                f"{', exact' if method.exact else ''}"
                f"{', homogeneous-only' if method.homogeneous_only else ''}"
                f"{', batched' if method.solve_batch is not None else ''}"
                if method is not None
                else "?"
            )
            lines.append(f"  {rank}. {name:14s} {meta}")
        for skip in self.skipped:
            lines.append(f"  -  {skip.method:14s} skipped: {skip.reason}")
        return "\n".join(lines)


def _axis_max(value: "int | tuple[int, ...]") -> int:
    return max(value) if isinstance(value, tuple) else value


class Planner:
    """Selects and orders registry methods for a workload.

    It has no settings: ``repro plan show`` and ``repro scenario run``
    build the same plan for the same scenario, objective and methods.
    """

    def plan(
        self,
        scenario,
        methods: "Sequence[str | Method] | None" = None,
        objective: str = "reliability",
    ) -> Plan:
        """Build a :class:`Plan` for *scenario*.

        Parameters
        ----------
        scenario:
            A registered scenario name, a
            :class:`~repro.scenarios.spec.ScenarioSpec`, or a
            :class:`~repro.scenarios.registry.Scenario`.
        methods:
            Explicit candidates (names or :class:`Method` objects).
            When given, only the hard capability gates apply — the
            caller asked for these methods, so redundancy and
            manual-only methods are their call.  ``None`` (default)
            auto-discovers candidates from the whole registry.
        objective:
            The :data:`repro.solve.OBJECTIVES` entry the plan's solves
            will carry (default: the paper's ``"reliability"``).
            Methods that do not declare it are skipped with an
            "objective unsupported" reason — a hard gate, applied even
            to explicit method lists.

        Raises
        ------
        UnknownMethodError
            For unknown explicit method names (same message as
            :func:`~repro.experiments.methods.get_method`).
        UnknownScenarioError
            For unknown scenario names.
        ValueError
            For unknown objectives.
        """
        from repro.experiments.methods import METHODS, Method, get_method
        from repro.scenarios import resolve_scenario, scenario_hash, spec_is_homogeneous
        from repro.solve.problem import OBJECTIVES

        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; supported: {OBJECTIVES}"
            )

        spec, _ = resolve_scenario(scenario)
        homogeneous = spec_is_homogeneous(spec)
        explicit = methods is not None
        if explicit:
            candidates = [
                m if isinstance(m, Method) else get_method(m) for m in methods
            ]
        else:
            candidates = [METHODS[name] for name in sorted(METHODS)]

        n_tasks = _axis_max(spec.n_tasks)
        n_procs = _axis_max(spec.p)

        selected: list[Method] = []
        skipped: list[MethodSkip] = []
        with obs.span("planner.plan", label=spec.name):
            for method in candidates:
                reason = _skip_reason(
                    method, homogeneous=homogeneous, paired=spec.paired,
                    n_tasks=n_tasks, n_procs=n_procs, max_replication=spec.K,
                    explicit=explicit, objective=objective,
                )
                if reason is None:
                    selected.append(method)
                else:
                    skipped.append(MethodSkip(method.name, reason))
                    obs.counter("planner.skip", label=method.name)

        # Expensive-first: the same order the harness submits units in,
        # so a plan's listing is also its schedule.
        selected.sort(key=lambda m: (-m.cost_hint, m.name))

        if not explicit:
            # Exact methods prove the same optimum; keep the cheapest.
            exacts = [m for m in selected if m.exact]
            if len(exacts) > 1:
                keep = min(exacts, key=lambda m: (m.cost_hint, m.name))
                for m in exacts:
                    if m is not keep:
                        selected.remove(m)
                        skipped.append(MethodSkip(
                            m.name,
                            f"redundant exact solver: {keep.name!r} "
                            f"(cost_hint {keep.cost_hint:g} vs {m.cost_hint:g}) "
                            f"proves the same optimum",
                        ))
                        obs.counter("planner.skip", label=m.name)

        obs.counter("planner.selected", len(selected))
        return Plan(
            scenario=spec.name,
            spec_hash=scenario_hash(spec),
            selected=tuple(m.name for m in selected),
            skipped=tuple(skipped),
            objective=objective,
        )


def _skip_reason(
    method: Method,
    *,
    homogeneous: bool,
    paired: bool,
    n_tasks: int,
    n_procs: int,
    max_replication: int,
    explicit: bool,
    objective: str,
) -> "str | None":
    """The reason to drop *method*, or None to keep it."""
    if objective not in method.objectives:
        return (
            f"objective {objective!r} unsupported (method optimizes: "
            f"{', '.join(method.objectives)})"
        )
    if method.homogeneous_only and not homogeneous:
        return (
            "requires homogeneous platforms (Section 5 algorithm); "
            "scenario generates heterogeneous ones"
        )
    max_tasks, max_procs = MAX_EXACT_TASKS, MAX_EXACT_PROCS
    if explicit and method.solve_batch is not None:
        max_tasks, max_procs = MAX_BATCHED_EXACT_TASKS, MAX_BATCHED_EXACT_PROCS
    if method.exact and (n_tasks > max_tasks or n_procs > max_procs):
        return (
            f"scenario size {n_tasks} tasks x {n_procs} procs exceeds the "
            f"exact-method threshold ({max_tasks} x {max_procs}); use "
            "heuristics at this scale"
        )
    if method.size_check is not None:
        reason = method.size_check(n_tasks, n_procs, max_replication, homogeneous)
        if reason is not None:
            return reason
    if explicit:
        return None
    if "manual" in method.tags:
        return "manual-only method (request it explicitly with --methods)"
    if "paired" in method.tags and not paired:
        return (
            "paper-variant heuristic reserved for paired "
            "(Section 8.2-style) scenarios"
        )
    return None
