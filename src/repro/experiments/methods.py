"""Method registry: a uniform, extensible interface for the harness.

A :class:`Method` maps a :class:`repro.solve.Problem` — the frozen,
content-hashable Section 3 instance (chain + platform + period/latency
bounds + objective) — to a
:class:`~repro.algorithms.result.SolveResult`.  Methods live in a
process-wide registry so the sweep runner, the planner, the cache, and
the CLI can all refer to them *by name* — which is also what lets the
parallel harness ship work units to worker processes as plain strings
instead of unpicklable closures.

The front door for one-off solves is the facade::

    from repro.solve import Problem, solve

    problem = Problem(chain, platform, max_period=250.0, max_latency=750.0)
    result = solve(problem, method="pareto-dp")     # or method="auto"

Built-in methods:

* ``"ilp"`` — the Section 5.4 integer program (exact, homogeneous only);
  the paper's yardstick in Figures 6-11.  ``"ilp-bb"`` is the same
  model on the pure-python branch-and-bound backend (cross-check use).
* ``"pareto-dp"`` — our exact combinatorial solver (homogeneous only);
  same optima as ``"ilp"``, several times faster — handy for full-scale
  regeneration.
* ``"heur-l"`` / ``"heur-p"`` — the Section 7 heuristics (any platform);
  ``"heuristic"`` runs both and keeps the best feasible candidate.
* ``"heur-l-paper"`` / ``"heur-p-paper"`` — the paper's heterogeneous
  reading of Section 7 (see the inline note below).
* ``"brute-force"`` — exhaustive search for tiny instances (the
  cross-check's ground truth; guarded by a search-space budget).
  Objective-aware: it answers *any* :data:`repro.solve.OBJECTIVES`
  entry exactly, which is what the converse-objective cross-checks
  compare against.
* ``"anneal"`` — the simulated-annealing extension; *stochastic*, so the
  harness hands it a deterministic per-unit seed (see
  :func:`repro.util.rng.stable_seed`).

Objective-native methods (the tri-criteria facade; every method above
supports only the paper's ``"reliability"`` objective unless noted):

* ``"dp-period"`` — minimize the period under a reliability floor and
  a latency bound (Section 5.2's converse, generalized;
  :func:`repro.algorithms.minimize_period`); exact, homogeneous only.
* ``"dp-latency"`` — minimize the latency under a reliability floor
  and a period bound (:func:`repro.algorithms.minimize_latency`, a
  final-frontier scan of the Pareto DP); exact, homogeneous only.
* ``"energy-greedy"`` — minimize the Section 9 dynamic-power energy
  under both bounds and a floor
  (:func:`repro.extensions.energy.minimize_energy`); heuristic, any
  platform.

Extending the registry::

    @register_method("my-method", exact=False, cost_hint=2.0)
    def _my_solve(problem):
        return ...  # a SolveResult for problem.chain on problem.platform

Capability metadata drives validation (``homogeneous_only`` methods
refuse heterogeneous platforms up front), scheduling (the parallel
harness submits high-``cost_hint`` units first so expensive solves do
not straggle at the end of the pool queue), and *planning*: the
scenario-aware :class:`repro.solve.Planner` reads ``homogeneous_only``,
``exact``, ``cost_hint`` and ``tags`` to select and order the methods
applicable to a workload, recording a skip reason for every method it
drops.
"""

from __future__ import annotations

import hashlib
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms import (
    brute_force_best,
    heuristic_best,
    heuristic_solve_batch,
    ilp_best,
    pareto_dp_best,
)
from repro.algorithms.batch_dp import (
    batch_minimize_latency,
    batch_minimize_period,
    batch_pareto_dp,
)
from repro.algorithms.batch_search import search_solve_batch
from repro.algorithms.result import SolveResult
from repro.core.platform import Platform
from repro.solve.problem import Problem

__all__ = [
    "Method",
    "METHODS",
    "UnknownMethodError",
    "get_method",
    "register_method",
]


class UnknownMethodError(KeyError, ValueError):
    """Raised when a method name is not in the registry (or a sweep).

    Subclasses both :class:`KeyError` (the registry is a mapping) and
    :class:`ValueError` (historical behaviour), so callers catching
    either keep working.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class Method:
    """A named mapping-search method usable in solves, plans, and sweeps.

    Attributes
    ----------
    name:
        Registry key and curve label.
    solve:
        The registered solve callable: ``(problem) -> SolveResult``
        (stochastic methods additionally accept a ``seed`` keyword).
    exact:
        True for provably optimal solvers, False for heuristics.
    homogeneous_only:
        True when the method's theory only covers homogeneous platforms
        (the Section 5 algorithms); such methods refuse heterogeneous
        platforms with a clear error (:meth:`check_platform`).
    cost_hint:
        Relative cost of one solve (heuristics ~1).  The parallel
        harness schedules expensive units first to balance the pool,
        and the planner orders selected methods expensive-first.
    seeded:
        True when ``solve`` is stochastic and takes a ``seed`` keyword;
        the harness derives a deterministic per-unit seed so parallel
        and serial runs stay bit-identical.
    tags:
        Free-form capability labels.  The planner understands
        ``"manual"`` (never auto-selected; must be requested
        explicitly) and ``"paired"`` (auto-selected only for paired
        Section 8.2-style scenarios).
    objectives:
        The :data:`repro.solve.OBJECTIVES` entries the method can
        optimize (default: the paper's ``"reliability"`` only).
        :meth:`check_problem` refuses problems with any other
        objective, and the planner skips the method for
        objective-mismatched plans with a recorded reason.
    solve_batch:
        Optional batched entry point — ``(ensemble, bounds, *, rows,
        objective, min_reliability) ->``
        :class:`~repro.algorithms.batch.UnitResults` of shape
        ``(len(rows), len(bounds))``, bit-identical to looping
        :attr:`solve` over the rows.  Its per-row ``infos`` carry the
        solve details (probe counts, convergence flags) exactly as the
        harness would have accumulated them from the per-row results,
        or ``None`` for methods that report none.  The sweep harness calls
        it per ``(method, ensemble)`` group; a kernel that does not
        cover the shape raises
        :class:`repro.algorithms.batch.BatchUnsupported` (whose
        ``reason`` the harness counts per fallback class) and every
        row falls back to the per-instance path.  ``None`` (default)
        means "no batched path".
    """

    name: str
    solve: Callable[..., SolveResult]
    exact: bool
    homogeneous_only: bool
    cost_hint: float = 1.0
    seeded: bool = False
    tags: tuple[str, ...] = ()
    objectives: tuple[str, ...] = ("reliability",)
    solve_batch: "Callable | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        from repro.solve.problem import OBJECTIVES

        objectives = tuple(self.objectives)
        if not objectives:
            raise ValueError(f"method {self.name!r} must support at least one objective")
        unknown = [o for o in objectives if o not in OBJECTIVES]
        if unknown:
            raise ValueError(
                f"method {self.name!r} declares unknown objectives {unknown}; "
                f"supported: {OBJECTIVES}"
            )
        object.__setattr__(self, "objectives", objectives)

    def solve_problem(self, problem: Problem, *, seed: "int | None" = None) -> SolveResult:
        """Solve one :class:`~repro.solve.Problem` (the canonical path).

        *seed* is forwarded only to stochastic (:attr:`seeded`)
        methods; deterministic methods ignore it.
        """
        if self.seeded:
            return self.solve(problem, seed=seed)
        return self.solve(problem)

    def check_platform(self, platform: Platform) -> None:
        """Raise a descriptive error if *platform* is out of scope."""
        if self.homogeneous_only and not platform.homogeneous:
            raise ValueError(
                f"method {self.name!r} requires homogeneous platforms "
                f"(it implements a Section 5 algorithm); got a "
                f"heterogeneous platform with {platform.p} processors. "
                f"Use a heuristic method (e.g. 'heur-l', 'heur-p') instead."
            )

    def check_problem(self, problem: Problem) -> None:
        """Raise a descriptive error if *problem* is out of scope."""
        self._check_objective(problem.objective)
        self.check_platform(problem.platform)

    def check_ensemble(self, ensemble, objective: str = "reliability") -> None:
        """Raise a descriptive error if any ensemble row is out of scope.

        The columnar twin of :meth:`check_problem`: the objective is
        checked once for the whole
        :class:`~repro.core.ensemble.Ensemble`, and homogeneity is read
        off the columns — a heterogeneous row only materializes its
        :class:`Platform` to raise the usual descriptive error.
        """
        self._check_objective(objective)
        if self.homogeneous_only and not ensemble.all_homogeneous:
            offending = int(np.argmin(ensemble.homogeneous_rows()))
            self.check_platform(ensemble.platform(offending))

    def _check_objective(self, objective: str) -> None:
        if objective not in self.objectives:
            raise ValueError(
                f"method {self.name!r} does not support objective "
                f"{objective!r} (it supports: "
                f"{', '.join(self.objectives)}); see repro.solve.OBJECTIVES "
                f"for objective-native methods"
            )

    def fingerprint(self) -> str:
        """Implementation fingerprint of the solve callable.

        A registry *name* does not identify an implementation: a user
        can re-register a name, or edit a registered function between
        runs.  The harness therefore pairs the name with this digest —
        bytecode plus constants plus closure-cell values — in cache
        keys (so edited code never replays stale arrays) and in the
        worker handshake (so a spawn-started worker that resolves the
        name to *different* code refuses the unit instead of silently
        running the wrong solver).

        Only stable values are hashed: bytecode, nested functions, and
        captured primitives.  Mutable captured objects (a stats dict, a
        logger) reduce to their type name — their runtime *state* is
        not part of the implementation, and hashing it would churn the
        key on every call.
        """
        digest = hashlib.sha256()
        _PRIMITIVES = (str, bytes, int, float, complex, bool, type(None))

        def visit(obj) -> None:
            if isinstance(obj, types.CodeType):
                digest.update(obj.co_code)
                for const in obj.co_consts:
                    visit(const)
            elif isinstance(obj, types.FunctionType):
                visit(obj.__code__)
                for cell in obj.__closure__ or ():
                    try:
                        visit(cell.cell_contents)
                    except ValueError:  # empty cell
                        pass
            elif isinstance(obj, _PRIMITIVES):
                digest.update(repr(obj).encode())
            elif isinstance(obj, (tuple, frozenset)):
                for item in obj:
                    visit(item)
            else:
                digest.update(f"<{type(obj).__qualname__}>".encode())
            digest.update(b"\x1f")

        visit(self.solve)
        if self.solve_batch is not None:
            # The batched path must agree with solve bit for bit, but
            # its code is still part of the implementation a cache key
            # vouches for — edits to the kernel invalidate entries.
            digest.update(b"batch\x1e")
            visit(self.solve_batch)
        return digest.hexdigest()

    def __call__(self, *args, **kwargs) -> SolveResult:
        """Alias of :attr:`solve`: ``method(problem)``."""
        return self.solve(*args, **kwargs)


#: The process-wide registry (name -> Method).  Mutate only through
#: :func:`register_method`.
METHODS: dict[str, Method] = {}


def register_method(
    name: str,
    *,
    exact: bool = False,
    homogeneous_only: bool = False,
    cost_hint: float = 1.0,
    seeded: bool = False,
    tags: "tuple[str, ...] | list[str]" = (),
    objectives: "tuple[str, ...] | list[str]" = ("reliability",),
    solve_batch: "Callable | None" = None,
    replace: bool = False,
) -> Callable[[Callable], Method]:
    """Decorator registering a solve callable as a named :class:`Method`.

    The callable takes a :class:`repro.solve.Problem`.
    ``solve_batch`` optionally attaches a batched kernel (see
    :attr:`Method.solve_batch`) that must reproduce ``fn`` row by row,
    bit for bit.  Duplicate names are rejected (``ValueError``) unless
    ``replace=True`` — re-registering silently would let one experiment
    corrupt another's curves and cache keys.  Returns the
    :class:`Method` record, so the decorated name is the method object
    itself (its ``solve`` attribute holds the decorated callable).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"method name must be a non-empty string, got {name!r}")

    def deco(fn: Callable) -> Method:
        if name in METHODS and not replace:
            raise ValueError(
                f"method {name!r} is already registered "
                f"(pass replace=True to override)"
            )
        method = Method(
            name=name,
            solve=fn,
            exact=exact,
            homogeneous_only=homogeneous_only,
            cost_hint=cost_hint,
            seeded=seeded,
            tags=tuple(tags),
            objectives=tuple(objectives),
            solve_batch=solve_batch,
        )
        METHODS[name] = method
        return method

    return deco


def get_method(name: str) -> Method:
    """Look up a registered method by name.

    Raises
    ------
    UnknownMethodError
        With the sorted list of known names — a ``KeyError`` (and, for
        backward compatibility, a ``ValueError``).
    """
    try:
        return METHODS[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; available: {sorted(METHODS)}"
        ) from None


# --------------------------------------------------------------------------
# Built-in methods
# --------------------------------------------------------------------------


@register_method("ilp", exact=True, homogeneous_only=True, cost_hint=10.0)
def _ilp(problem):
    return ilp_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


@register_method(
    "ilp-bb", exact=True, homogeneous_only=True, cost_hint=30.0, tags=("manual",)
)
def _ilp_bb(problem):
    return ilp_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
        backend="branch-bound",
    )


# The batched kernel shares one frontier DP per row across every sweep
# point that admits the same intervals.
@register_method(
    "pareto-dp", exact=True, homogeneous_only=True, cost_hint=3.0,
    solve_batch=batch_pareto_dp,
)
def _pareto(problem):
    return pareto_dp_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


def _heur(which, selection, allocation="auto"):
    def solve(problem):
        return heuristic_best(
            problem.chain,
            problem.platform,
            max_period=problem.max_period,
            max_latency=problem.max_latency,
            which=which,
            selection=selection,
            allocation=allocation,
        )

    return solve


# The Section 7 heuristics carry the columnar kernel: on the
# reliability objective the harness solves whole row groups in one
# call, bit-identical to the per-row path; other objectives raise
# BatchUnsupported and fall back.
register_method("heur-l", solve_batch=heuristic_solve_batch("heur-l"))(
    _heur("heur-l", "feasible-best")
)
register_method("heur-p", solve_batch=heuristic_solve_batch("heur-p"))(
    _heur("heur-p", "feasible-best")
)

# Both Section 7 heuristics, best feasible candidate kept — the CLI's
# default on heterogeneous platforms.  "manual" keeps the planner from
# auto-selecting it next to its own components heur-l / heur-p.
register_method(
    "heuristic", cost_hint=1.5, tags=("manual",),
    solve_batch=heuristic_solve_batch("both"),
)(
    _heur("both", "feasible-best")
)

# The paper's heterogeneous experiment code: the Section 7.2 allocation
# (period-filtered) on *both* platforms of each pair, and
# best-reliability-then-check-bounds selection (see the heuristic_best
# docstring) — the source of Fig. 12's non-monotone curves.  Their
# kernel runs the lockstep Section 7.2 allocation on every row, the
# homogeneous counterpart's included.  The planner auto-selects these
# only for paired (Section 8.2) scenarios.
register_method(
    "heur-l-paper", tags=("paired",),
    solve_batch=heuristic_solve_batch("heur-l", "best-then-check", "het"),
)(
    _heur("heur-l", "best-then-check", allocation="het")
)
register_method(
    "heur-p-paper", tags=("paired",),
    solve_batch=heuristic_solve_batch("heur-p", "best-then-check", "het"),
)(
    _heur("heur-p", "best-then-check", allocation="het")
)


# Its size limit is brute_force_best's own search-space budget, which
# depends on p and K as well as the chain length.
# Objective-aware: the oracle the converse objectives cross-check against.
@register_method(
    "brute-force", exact=True, cost_hint=100.0, tags=("manual",),
    objectives=("reliability", "period", "latency", "energy"),
)
def _brute_force(problem):
    return brute_force_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
        objective=problem.objective,
        min_log_reliability=problem.min_log_reliability,
    )


# --------------------------------------------------------------------------
# Objective-native methods (the tri-criteria facade)
# --------------------------------------------------------------------------


# Binary search re-running an exact reliability DP per probe: O(log n^2)
# probes of Algorithm 2 (or the Pareto DP when a latency bound is set).
# The batched kernel covers the Algorithm 2 cell (all latency bounds
# infinite); finite-latency points fall back to the per-row Pareto probe.
@register_method(
    "dp-period", exact=True, homogeneous_only=True, cost_hint=8.0,
    objectives=("period",), solve_batch=batch_minimize_period,
)
def _dp_period(problem):
    from repro.algorithms.dp_period import minimize_period

    return minimize_period(
        problem.chain, problem.platform,
        min_log_reliability=problem.min_log_reliability,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


# One Pareto-DP run plus a final-frontier scan — the same DP as
# pareto-dp, so the same worst case.  Its kernel shares one run per row
# across the latency points of a sweep.
@register_method(
    "dp-latency", exact=True, homogeneous_only=True, cost_hint=5.0,
    objectives=("latency",), solve_batch=batch_minimize_latency,
)
def _dp_latency(problem):
    from repro.algorithms.pareto_dp import minimize_latency

    return minimize_latency(
        problem.chain, problem.platform,
        min_log_reliability=problem.min_log_reliability,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


# Binary search over Section 7 heuristic solves — the heterogeneous
# converse-objective gap-closer: period minimization where the Section 5
# dp-period theory does not apply.  Heuristic (the probes are), any
# platform; on homogeneous platforms "auto" still prefers the exact,
# cheaper dp-period.
@register_method(
    "het-period-search", cost_hint=12.0, objectives=("period",),
    solve_batch=search_solve_batch("period"),
)
def _het_period_search(problem):
    from repro.extensions.period_search import minimize_period_search

    return minimize_period_search(
        problem.chain, problem.platform,
        min_log_reliability=problem.min_log_reliability,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


# The latency twin, completing method="auto" coverage of every
# (objective x platform-kind) cell; on homogeneous platforms "auto"
# still prefers the exact, cheaper dp-latency.
@register_method(
    "het-latency-search", cost_hint=12.0, objectives=("latency",),
    solve_batch=search_solve_batch("latency"),
)
def _het_latency_search(problem):
    from repro.extensions.latency_search import minimize_latency_search

    return minimize_latency_search(
        problem.chain, problem.platform,
        min_log_reliability=problem.min_log_reliability,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


# Section 7 heuristic seeds + replica thinning; any platform.
@register_method("energy-greedy", cost_hint=2.0, objectives=("energy",))
def _energy_greedy(problem):
    from repro.extensions.energy import minimize_energy

    return minimize_energy(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
        min_log_reliability=problem.min_log_reliability,
    )


@register_method("anneal", cost_hint=20.0, seeded=True)
def _anneal(problem, seed=None):
    from repro.extensions.annealing import anneal_mapping

    return anneal_mapping(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
        iterations=500, rng=seed,
    )
