"""The paper's integer linear program (Section 5.4).

Given ``n`` tasks on ``p`` homogeneous processors with bounds ``P`` on
period and ``L`` on latency, compute the most reliable schedule meeting
both bounds.  Variables: ``a_{i,j,k} = 1`` iff the interval
``tau_i .. tau_j`` is allocated onto ``k`` processors (``k <= min(p, K)``).

Constraints (quoting Section 5.4, 0-based indices in code):

* every task belongs to exactly one chosen interval;
* at most ``p`` processors are used (``sum k * a <= p``);
* the latency bound holds;
* the period bound holds — enforced here by *pruning*: any ``a_{i,j,k}``
  whose interval violates ``max(o_{i-1}/b, W(i,j)/s, o_j/b) <= P`` is
  simply not created (equivalent to the paper's forcing constraints and
  much smaller).

The objective maximizes ``log r = sum log(1 - (1 - r_branch)^k) * a``,
which is linear in ``a``.  In two places the printed program is
inconsistent with the paper's own model (typos in the preprint):

* the printed latency constraint sums only computation terms; Eq. (5)/(7)
  also charge one ``o_{l_j}/b`` per interval.  ``latency_terms`` selects
  ``"full"`` (default, consistent with the rest of the library and the
  exact Pareto DP) or ``"paper"`` (as printed);
* the printed objective omits the communication reliabilities; we use
  the full Eq. (9) branch reliability (incoming comm x interval x
  outgoing comm), again matching every other method.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from repro.algorithms._hom_dp import require_homogeneous
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import comm_log_reliability, evaluate_mapping
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.ilp import Model
from repro.util import logrel
from repro.util.validation import check_bound

__all__ = ["build_mapping_ilp", "ilp_best"]

LatencyTerms = Literal["full", "paper"]
Backend = Literal["scipy", "branch-bound"]


def build_mapping_ilp(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    latency_terms: LatencyTerms = "full",
) -> tuple[Model, dict[tuple[int, int, int], "object"]]:
    """Build the Section 5.4 integer program.

    Returns the model and the variable dictionary keyed by
    ``(start, stop, k)`` with Python half-open task indices.
    """
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    require_homogeneous(platform, "the Section 5.4 ILP")
    if latency_terms not in ("full", "paper"):
        raise ValueError(f"latency_terms must be 'full' or 'paper', got {latency_terms!r}")
    n, p = chain.n, platform.p
    kmax = min(platform.max_replication, p)
    s = float(platform.speeds[0])
    lam = float(platform.failure_rates[0])
    b = platform.bandwidth

    prefix = np.concatenate(([0.0], np.cumsum(chain.work)))
    model = Model("benoit-ilp", sense="max")
    variables: dict[tuple[int, int, int], object] = {}
    coeffs: dict[tuple[int, int, int], float] = {}
    latency_expr = None
    procs_expr = None
    cover_exprs: list = [None] * n

    for start in range(n):
        ell_in = comm_log_reliability(platform, chain.input_of(start))
        t_in = chain.input_of(start) / b
        for stop in range(start + 1, n + 1):
            work = float(prefix[stop] - prefix[start])
            t_out = chain.output_of(stop) / b
            # Period pruning (the paper's period constraints force these
            # variables to zero; we omit them instead).
            if work / s > max_period or t_out > max_period or t_in > max_period:
                continue
            ell_out = comm_log_reliability(platform, chain.output_of(stop))
            ell_branch = ell_in - lam * work / s + ell_out
            lat_coeff = work / s + (t_out if latency_terms == "full" else 0.0)
            for k in range(1, kmax + 1):
                coeffs[(start, stop, k)] = logrel.parallel_k(ell_branch, k)
                var = model.add_var(f"a[{start},{stop},{k}]", lb=0, ub=1, integer=True)
                variables[(start, stop, k)] = var
                latency_expr = (
                    lat_coeff * var
                    if latency_expr is None
                    else latency_expr + lat_coeff * var
                )
                procs_expr = k * var if procs_expr is None else procs_expr + k * var
                for t in range(start, stop):
                    cover_exprs[t] = (
                        var.expr() if cover_exprs[t] is None else cover_exprs[t] + var
                    )

    # Log-reliability coefficients are tiny (|coeff| down to 1e-19 with the
    # paper's failure rates), far below MILP solver tolerances; maximizing
    # is invariant under positive scaling, so normalize the largest
    # magnitude to ~1e4 and record the scale for reporting.
    objective = None
    max_abs = max((abs(c) for c in coeffs.values()), default=0.0)
    scale = 1.0 if max_abs == 0.0 else 1e4 / max_abs
    model.objective_scale = scale  # type: ignore[attr-defined]
    for key, coeff in coeffs.items():
        term = (coeff * scale) * variables[key]
        objective = term if objective is None else objective + term

    if objective is None:
        # Every candidate interval violates the period bound: infeasible
        # by construction; encode with an unsatisfiable empty cover.
        model.objective_scale = 1.0  # type: ignore[attr-defined]
        model.set_objective(0.0)
        x = model.add_var("infeasible", lb=1, ub=1)
        model.add_constraint(x.expr() <= 0, name="no-interval-fits")
        return model, variables

    model.set_objective(objective)
    for t in range(n):
        if cover_exprs[t] is None:
            # Task t fits in no interval: infeasible.
            x = model.add_var(f"uncoverable[{t}]", lb=1, ub=1)
            model.add_constraint(x.expr() <= 0, name=f"task-{t}-uncoverable")
            return model, variables
        model.add_constraint(cover_exprs[t] == 1, name=f"cover[{t}]")
    model.add_constraint(procs_expr <= p, name="processors")
    if math.isfinite(max_latency):
        model.add_constraint(latency_expr <= max_latency, name="latency")
    return model, variables


def ilp_best(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    latency_terms: LatencyTerms = "full",
    backend: Backend = "scipy",
) -> SolveResult:
    """Solve the Section 5.4 program and decode the optimal mapping.

    Parameters
    ----------
    backend:
        ``"scipy"`` (HiGHS branch-and-cut, default) or ``"branch-bound"``
        (the pure-Python cross-check solver).

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [4.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-6,
    ...                                      max_replication=2)
    >>> ilp_best(chain, plat, max_period=7.0, max_latency=17.0).mapping.m
    2
    """
    max_period = check_bound("max_period", max_period)
    max_latency = check_bound("max_latency", max_latency)
    # The solvers import scipy, which only ILP solves need.
    from repro.ilp import solve_with_branch_bound, solve_with_scipy

    model, variables = build_mapping_ilp(
        chain, platform, max_period, max_latency, latency_terms
    )
    if backend == "scipy":
        sol = solve_with_scipy(model)
    elif backend == "branch-bound":
        sol = solve_with_branch_bound(model)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if not sol.optimal:
        return SolveResult.infeasible(
            f"ilp:{backend}", status=sol.status, variables=len(variables)
        )

    chosen = sorted(
        (key for key, var in variables.items() if sol[var] > 0.5),
        key=lambda key: key[0],
    )
    assignment = []
    nxt = 0
    for start, stop, k in chosen:
        assignment.append((Interval(start, stop), tuple(range(nxt, nxt + k))))
        nxt += k
    mapping = Mapping(chain, platform, assignment)
    scale = getattr(model, "objective_scale", 1.0)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method=f"ilp:{backend}",
        details={
            "objective": sol.objective / scale,
            "variables": len(variables),
            "nodes": sol.nodes,
        },
    )
