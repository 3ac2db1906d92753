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
* ``"anneal"`` — the simulated-annealing extension (manual only).  It
  is stochastic, but seeds its generator from
  :meth:`Problem.content_hash` (see :func:`repro.util.rng.stable_seed`),
  so, like every registered method, it is a pure function of its
  problem.

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

Cache keys and the worker handshake carry :meth:`Method.fingerprint`, a
digest of the source a method runs, read from disk and never imported.
The built-ins import each kernel and per-row solver inside the function
that calls it, so a run served entirely from cache loads none of them.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms import search_space
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
        The registered solve callable: ``(problem) -> SolveResult``,
        a pure function of the problem (a stochastic method seeds
        itself from :meth:`Problem.content_hash`).
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
        :class:`~repro.algorithms.result.UnitResults` of shape
        ``(len(rows), len(bounds))``, bit-identical to looping
        :attr:`solve` over the rows.  Its per-row ``infos`` carry the
        solve details (probe counts, convergence flags) exactly as the
        harness would have accumulated them from the per-row results,
        or ``None`` for methods that report none.  The sweep harness calls
        it per ``(method, ensemble)`` group, after
        :meth:`check_ensemble` has accepted the ensemble and the
        objective, and the kernel must serve every such group: there
        is no per-row fallback.  ``None`` (default) means "no batched
        path".
    size_check:
        Optional ``(n_tasks, n_procs, max_replication, homogeneous) ->
        reason or None``: the method's own refusal of instances this
        large.  The planner skips a method whose check gives a reason
        for a scenario's largest variant, so a run the method would
        refuse fails before any work.  ``None`` (default) means no
        limit of its own.
    """

    name: str
    solve: Callable[..., SolveResult]
    exact: bool
    homogeneous_only: bool
    cost_hint: float = 1.0
    tags: tuple[str, ...] = ()
    objectives: tuple[str, ...] = ("reliability",)
    solve_batch: "Callable | None" = None
    size_check: "Callable[[int, int, int, bool], str | None] | None" = None

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

    def fingerprint(self) -> "str | None":
        """Implementation fingerprint: a digest of the source this method runs.

        A registry *name* does not identify an implementation, so the
        harness pairs it with this digest in cache keys (edited code
        never replays stale arrays) and in the worker handshake (a
        worker whose registry binds the name to other code refuses the
        unit).  :attr:`solve` and :attr:`solve_batch` each contribute
        their ``__qualname__``, first line and primitive closure cells
        (``_heur``'s ``which``), plus the source bytes of their defining
        module and every ``repro`` module it reaches
        (:func:`_source_closure`).  A callable with no source file has
        no fingerprint: the harness runs it uncached, in the parent.
        """
        return _fingerprint(self.solve, self.solve_batch)


_PRIMITIVES = (str, bytes, int, float, complex, bool, type(None))
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``import <module>``, or ``from <package> import <names>`` with the
#: names possibly parenthesized over several lines.
_IMPORT = re.compile(
    r"^[ \t]*(?:import[ \t]+(repro[\w.]*)"
    r"|from[ \t]+(repro[\w.]*)[ \t]+import[ \t]+(\([^)]*\)|[^#\n]*))",
    re.MULTILINE,
)
_LAZY_ENTRY = re.compile(r'^[ \t]*"(\w+)": "(repro[\w.]*)",', re.MULTILINE)
#: The opening quotes of a module's leading docstring (after any
#: comment lines).
_DOCSTRING = re.compile(r'\A(?:[ \t]*(?:#[^\n]*)?\n)*[ \t]*[rRuU]?("""|\'\'\')')


@functools.lru_cache(maxsize=None)
def _fingerprint(*callables: "Callable | None") -> "str | None":
    parts = []
    for fn in filter(None, callables):
        code = getattr(fn, "__code__", None)
        if code is None or not os.path.isfile(code.co_filename):
            return None
        cells = []
        for cell in fn.__closure__ or ():
            try:
                cells.append(cell.cell_contents)
            except ValueError:  # an empty cell
                pass
        parts.append((
            fn.__qualname__, code.co_firstlineno,
            [c for c in cells if isinstance(c, _PRIMITIVES)],
            _source_closure(fn.__module__, code.co_filename),
        ))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _source_closure(module: str, filename: str) -> "tuple[tuple[str, str], ...]":
    """Sorted ``(module, source digest)`` pairs for *filename* (the
    source of *module*) and every ``repro`` module it reaches: through
    import statements at any indentation, parent packages, and the
    :mod:`repro._lazy` table serving ``from <package> import <name>``.
    Files are scanned line by line past their leading docstring, never
    imported or parsed; the digest covers the whole file."""
    sources = {}
    todo = [(module, filename)]
    while todo:
        name, path = todo.pop()
        if name in sources:
            continue
        path = path or _module_path(name)
        if path is None:
            continue
        with open(path, "rb") as f:
            sources[name] = f.read()
        parts = name.split(".")
        reached = [".".join(parts[:i]) for i in range(1, len(parts))]
        for imported, package, names in _IMPORT.findall(_past_docstring(sources[name])):
            reached.append(imported or package)
            for attr in re.sub("#.*", "", names).strip("()").split(","):
                attr = attr.split(" as ")[0].strip()
                if attr:
                    # A submodule, or a name the package serves lazily.
                    reached += [f"{package}.{attr}", _lazy_targets(package).get(attr, "")]
        todo += [(n, None) for n in reached]
    return tuple(sorted((n, hashlib.sha256(s).hexdigest()) for n, s in sources.items()))


def _past_docstring(source: bytes) -> str:
    """*source* past its leading docstring, which the import scan skips:
    an example import there is not an import, and no real import can
    live inside it."""
    text = source.decode()
    opening = _DOCSTRING.match(text)
    end = text.find(opening.group(1), opening.end()) if opening else -1
    return text if end < 0 else text[end + 3:]


@functools.lru_cache(maxsize=None)
def _module_path(module: str) -> "str | None":
    """The source file of *module*, if it is a ``repro`` module."""
    if module.split(".")[0] != "repro":
        return None
    base = os.path.join(_PACKAGE_ROOT, *module.split(".")[1:])
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


@functools.lru_cache(maxsize=None)
def _lazy_targets(package: str) -> "dict[str, str]":
    """*package*'s :mod:`repro._lazy` table: served name -> module."""
    path = _module_path(package)
    if path is None or not path.endswith("__init__.py"):
        return {}
    with open(path, encoding="utf-8") as f:
        return dict(_LAZY_ENTRY.findall(f.read()))


#: The process-wide registry (name -> Method).  Mutate only through
#: :func:`register_method`.
METHODS: dict[str, Method] = {}


def register_method(
    name: str,
    *,
    exact: bool = False,
    homogeneous_only: bool = False,
    cost_hint: float = 1.0,
    tags: "tuple[str, ...] | list[str]" = (),
    objectives: "tuple[str, ...] | list[str]" = ("reliability",),
    solve_batch: "Callable | None" = None,
    size_check: "Callable[[int, int, int, bool], str | None] | None" = None,
    replace: bool = False,
) -> Callable[[Callable], Method]:
    """Decorator registering a solve callable as a named :class:`Method`.

    The callable takes one parameter, a :class:`repro.solve.Problem`,
    and is a pure function of it: a stochastic method seeds its own
    generator from :meth:`Problem.content_hash` (``_anneal`` below).
    ``solve_batch`` optionally attaches a batched kernel (see
    :attr:`Method.solve_batch`) that must reproduce ``fn`` row by row,
    bit for bit, and ``size_check`` the method's own size limit (see
    :attr:`Method.size_check`).  Duplicate names are rejected (``ValueError``) unless
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
            tags=tuple(tags),
            objectives=tuple(objectives),
            solve_batch=solve_batch,
            size_check=size_check,
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
    from repro.algorithms.ilp_mapping import ilp_best

    return ilp_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


@register_method(
    "ilp-bb", exact=True, homogeneous_only=True, cost_hint=30.0, tags=("manual",)
)
def _ilp_bb(problem):
    from repro.algorithms.ilp_mapping import ilp_best

    return ilp_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
        backend="branch-bound",
    )


# The batched kernel runs the frontier DP lane-vectorized: one lane per
# (row, sweep point), each with its own period admission and latency
# budget, so no sweep point shares another's DP.
def _pareto_batch(ensemble, bounds, **options):
    from repro.algorithms.batch_dp import batch_pareto_dp

    return batch_pareto_dp(ensemble, bounds, **options)


@register_method(
    "pareto-dp", exact=True, homogeneous_only=True, cost_hint=3.0,
    solve_batch=_pareto_batch,
)
def _pareto(problem):
    from repro.algorithms.pareto_dp import pareto_dp_best

    return pareto_dp_best(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


def _heur(which, selection, allocation="auto"):
    def solve(problem):
        from repro.algorithms.heuristics import heuristic_best

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


def _heur_batch(which, selection="feasible-best", allocation="auto"):
    def solve_batch(ensemble, bounds, **options):
        from repro.algorithms.batch import batch_heuristic_best

        return batch_heuristic_best(
            ensemble, bounds,
            which=which, selection=selection, allocation=allocation, **options,
        )

    return solve_batch


# The Section 7 heuristics carry the columnar kernel: the harness
# solves whole row groups in one call, bit-identical to the per-row
# path.
register_method("heur-l", solve_batch=_heur_batch("heur-l"))(
    _heur("heur-l", "feasible-best")
)
register_method("heur-p", solve_batch=_heur_batch("heur-p"))(
    _heur("heur-p", "feasible-best")
)

# Both Section 7 heuristics, best feasible candidate kept — the CLI's
# default on heterogeneous platforms.  "manual" keeps the planner from
# auto-selecting it next to its own components heur-l / heur-p.
register_method(
    "heuristic", cost_hint=1.5, tags=("manual",),
    solve_batch=_heur_batch("both"),
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
    solve_batch=_heur_batch("heur-l", "best-then-check", "het"),
)(
    _heur("heur-l", "best-then-check", allocation="het")
)
register_method(
    "heur-p-paper", tags=("paired",),
    solve_batch=_heur_batch("heur-p", "best-then-check", "het"),
)(
    _heur("heur-p", "best-then-check", allocation="het")
)


# Its size limit is brute_force_best's own search-space budget, which
# depends on p and K as well as the chain length; the planner applies it
# through size_check without importing the solver.
# Objective-aware: the oracle the converse objectives cross-check against.
@register_method(
    "brute-force", exact=True, cost_hint=100.0, tags=("manual",),
    objectives=("reliability", "period", "latency", "energy"),
    size_check=search_space.refusal,
)
def _brute_force(problem):
    from repro.algorithms.brute_force import brute_force_best

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
# The batched kernel bisects every (row, sweep point) lane in lockstep,
# each round probing the unbounded-latency lanes with the lane-vectorized
# Algorithm 2 DP and the others with the lane-vectorized Pareto DP.
def _dp_period_batch(ensemble, bounds, **options):
    from repro.algorithms.batch_dp import batch_minimize_period

    return batch_minimize_period(ensemble, bounds, **options)


@register_method(
    "dp-period", exact=True, homogeneous_only=True, cost_hint=8.0,
    objectives=("period",), solve_batch=_dp_period_batch,
)
def _dp_period(problem):
    from repro.algorithms.dp_period import minimize_period

    return minimize_period(
        problem.chain, problem.platform,
        min_log_reliability=problem.min_log_reliability,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


# One Pareto-DP run plus a final-frontier scan — the same DP as
# pareto-dp, so the same worst case.  Its kernel runs that DP
# lane-vectorized, one lane per (row, sweep point), as pareto-dp's does.
def _dp_latency_batch(ensemble, bounds, **options):
    from repro.algorithms.batch_dp import batch_minimize_latency

    return batch_minimize_latency(ensemble, bounds, **options)


@register_method(
    "dp-latency", exact=True, homogeneous_only=True, cost_hint=5.0,
    objectives=("latency",), solve_batch=_dp_latency_batch,
)
def _dp_latency(problem):
    from repro.algorithms.pareto_dp import minimize_latency

    return minimize_latency(
        problem.chain, problem.platform,
        min_log_reliability=problem.min_log_reliability,
        max_period=problem.max_period, max_latency=problem.max_latency,
    )


def _search_batch(criterion):
    """The lockstep bisection kernel for the *criterion* search."""

    def solve_batch(ensemble, bounds, *, objective=criterion, **options):
        from repro.algorithms.batch_search import batch_bisection_search

        if objective != criterion:
            raise ValueError(
                f"the batched {criterion}-search kernel covers objective "
                f"{criterion!r} only, got {objective!r}"
            )
        return batch_bisection_search(ensemble, bounds, criterion=criterion, **options)

    return solve_batch


# Binary search over Section 7 heuristic solves — the heterogeneous
# converse-objective gap-closer: period minimization where the Section 5
# dp-period theory does not apply.  Heuristic (the probes are), any
# platform; on homogeneous platforms "auto" still prefers the exact,
# cheaper dp-period.
@register_method(
    "het-period-search", cost_hint=12.0, objectives=("period",),
    solve_batch=_search_batch("period"),
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
    solve_batch=_search_batch("latency"),
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


# Seeded from the problem's content, so a direct solve, a serial or
# pool sweep and a cache replay draw the same moves.  "manual": its
# cost_hint would dominate any auto-selected run.
@register_method("anneal", cost_hint=20.0, tags=("manual",))
def _anneal(problem):
    from repro.extensions.annealing import anneal_mapping
    from repro.util.rng import stable_seed

    return anneal_mapping(
        problem.chain, problem.platform,
        max_period=problem.max_period, max_latency=problem.max_latency,
        iterations=500, rng=stable_seed("anneal", problem.content_hash()),
    )
