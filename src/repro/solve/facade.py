"""``solve(problem, method=...)`` — the one front door to every solver.

The facade resolves the method (by registry name, with ``"auto"``
picking a sensible default per platform), validates the problem against
the method's capability metadata, and runs the solve.  Errors are the
registry's own: an unknown name raises
:class:`~repro.experiments.methods.UnknownMethodError` with the exact
same message as :func:`~repro.experiments.methods.get_method`, and a
``homogeneous_only`` method on a heterogeneous platform raises the
registry's descriptive ``ValueError`` — callers never see a different
error surface than the registry they already know.

>>> from repro.core import Platform, TaskChain
>>> from repro.solve import Problem, solve
>>> chain = TaskChain(work=[10, 20, 15], output=[2, 3, 0])
>>> plat = Platform.homogeneous_platform(
...     4, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=2)
>>> solve(Problem(chain, plat, max_period=30.0, max_latency=60.0)).feasible
True
"""

from __future__ import annotations

from repro.algorithms.result import SolveResult
from repro.solve.problem import Problem

__all__ = ["solve", "auto_method_name"]


def auto_method_name(problem: Problem) -> str:
    """The registry name ``method="auto"`` resolves to for *problem*.

    For the paper's ``"reliability"`` objective: the fast exact solver
    on homogeneous platforms (Section 5 scope), the combined Section 7
    heuristic otherwise.  For the converse objectives the registry is
    consulted: among the non-``manual`` methods declaring the
    objective and admitting the platform, the cheapest by ``cost_hint``
    wins (ties by name) — so a newly registered objective-native method
    is auto-discoverable without touching this function.

    Raises
    ------
    UnknownMethodError
        When no registered method supports the problem's objective on
        its platform kind (e.g. period minimization on a heterogeneous
        platform, which Section 6 proves NP-complete even to bound).
    """
    if problem.objective == "reliability":
        return "pareto-dp" if problem.homogeneous else "heuristic"
    from repro.experiments.methods import METHODS, UnknownMethodError

    candidates = [
        m
        for m in METHODS.values()
        if problem.objective in m.objectives
        and (problem.homogeneous or not m.homogeneous_only)
        and "manual" not in m.tags
    ]
    if not candidates:
        kind = "homogeneous" if problem.homogeneous else "heterogeneous"
        raise UnknownMethodError(
            f"no registered method supports objective {problem.objective!r} "
            f"on {kind} platforms; register one with "
            f"register_method(..., objectives=({problem.objective!r},)) or "
            f"request 'brute-force' explicitly for tiny instances"
        )
    return min(candidates, key=lambda m: (m.cost_hint, m.name)).name


def solve(problem: Problem, method="auto") -> SolveResult:
    """Solve one :class:`Problem` with a registered (or ad-hoc) method.

    Parameters
    ----------
    problem:
        The instance to solve.
    method:
        A registry name (see ``repro.experiments.METHODS``), a
        :class:`~repro.experiments.methods.Method` object, or
        ``"auto"`` (default) — :func:`auto_method_name`'s choice.

    Raises
    ------
    UnknownMethodError
        For unknown method names (identical message to the registry's
        :func:`~repro.experiments.methods.get_method`).
    ValueError
        When the problem is out of the method's declared scope (e.g. a
        Section 5 exact method on a heterogeneous platform, or an
        objective the method does not declare in ``Method.objectives``).
    """
    from repro.experiments.methods import Method, get_method

    if not isinstance(problem, Problem):
        raise TypeError(
            f"solve() takes a repro.solve.Problem, got {type(problem).__name__}; "
            f"wrap the instance: solve(Problem(chain, platform, P, L), ...)"
        )
    if isinstance(method, Method):
        resolved = method
    else:
        name = auto_method_name(problem) if method == "auto" else method
        resolved = get_method(name)
    resolved.check_problem(problem)
    return resolved.solve(problem)
