"""A small mixed-integer linear programming layer.

The paper solves its Section 5.4 integer program with CPLEX; offline we
substitute (a) the exact HiGHS branch-and-cut solver shipped with SciPy
(:mod:`repro.ilp.scipy_backend`) and (b) a self-contained best-first
branch-and-bound on LP relaxations (:mod:`repro.ilp.branch_bound`),
useful as a cross-check and where `scipy.optimize.milp` is unavailable.

The modeling front-end (:mod:`repro.ilp.model`) is deliberately tiny —
variables, linear expressions, constraints, one objective — just enough
to express the paper's program readably.

Both solvers import scipy, so they load on first access (PEP 562):
``import repro.ilp`` costs only the numpy-backed model.
"""

import importlib

from repro.ilp.model import LinExpr, Model, Solution, Variable

_LAZY = {
    "solve_with_scipy": "repro.ilp.scipy_backend",
    "solve_with_branch_bound": "repro.ilp.branch_bound",
}

__all__ = [
    "LinExpr",
    "Model",
    "Solution",
    "Variable",
    "solve_with_scipy",
    "solve_with_branch_bound",
]


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
