"""A small mixed-integer linear programming layer.

The paper solves its Section 5.4 integer program with CPLEX; offline we
substitute (a) the exact HiGHS branch-and-cut solver shipped with SciPy
(:mod:`repro.ilp.scipy_backend`) and (b) a self-contained best-first
branch-and-bound on LP relaxations (:mod:`repro.ilp.branch_bound`),
useful as a cross-check and where `scipy.optimize.milp` is unavailable.

The modeling front-end (:mod:`repro.ilp.model`) is deliberately tiny —
variables, linear expressions, constraints, one objective — just enough
to express the paper's program readably.

Every name loads its defining module on first access (PEP 562): both
solvers import scipy, so ``import repro.ilp`` must not load them.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "LinExpr": "repro.ilp.model",
    "Model": "repro.ilp.model",
    "Solution": "repro.ilp.model",
    "Variable": "repro.ilp.model",
    "solve_with_scipy": "repro.ilp.scipy_backend",
    "solve_with_branch_bound": "repro.ilp.branch_bound",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
