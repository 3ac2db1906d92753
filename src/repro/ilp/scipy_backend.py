"""Solve a :class:`repro.ilp.model.Model` with ``scipy.optimize.milp``.

SciPy's ``milp`` wraps the HiGHS branch-and-cut solver — an exact MILP
engine, standing in for the CPLEX dependency of the paper's experimental
section: CPLEX is proprietary, and any exact MILP solver reaches the
same optima.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from repro.ilp.model import Model, Solution

__all__ = ["solve_with_scipy"]


def solve_with_scipy(model: Model, time_limit: float | None = None) -> Solution:
    """Solve *model* exactly with HiGHS.

    Parameters
    ----------
    model:
        The MILP to solve.
    time_limit:
        Optional wall-clock cap in seconds (HiGHS option).  On timeout
        the best incumbent is returned with status ``"optimal"`` only if
        HiGHS proved optimality; otherwise ``"unknown"``.
    """
    arr = model.to_arrays()
    nvar = arr["c"].size
    constraints = []
    if arr["A_ub"].shape[0]:
        constraints.append(
            optimize.LinearConstraint(
                sparse.csr_matrix(arr["A_ub"]), -np.inf, arr["b_ub"]
            )
        )
    if arr["A_eq"].shape[0]:
        constraints.append(
            optimize.LinearConstraint(
                sparse.csr_matrix(arr["A_eq"]), arr["b_eq"], arr["b_eq"]
            )
        )
    # Exact optimum wanted: the default HiGHS relative MIP gap (1e-4) can
    # stop at near-optimal incumbents, which matters because reliability
    # objectives distinguish solutions at tiny relative differences.
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = optimize.milp(
        c=arr["c"],
        constraints=constraints or None,
        bounds=optimize.Bounds(arr["lb"], arr["ub"]),
        integrality=arr["integrality"],
        options=options,
    )
    if res.status == 2:  # infeasible
        return Solution("infeasible", float("nan"), np.full(nvar, np.nan))
    if res.status == 3:  # unbounded
        return Solution("unbounded", float("nan"), np.full(nvar, np.nan))
    if not res.success or res.x is None:
        return Solution("unknown", float("nan"), np.full(nvar, np.nan))
    x = np.asarray(res.x, dtype=float)
    # Snap integer variables (HiGHS returns them within tolerance).
    mask = arr["integrality"] == 1
    x[mask] = np.round(x[mask])
    objective = model.finish_objective(float(res.fun)) + float(arr["obj_offset"])
    return Solution("optimal", objective, x)
