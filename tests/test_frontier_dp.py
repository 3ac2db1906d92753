"""Differential tests of the shared frontier-DP core on adversarial inputs.

The pareto-dp and dp-latency kernels run one frontier DP per row and
admitted-interval group, and dp-period's finite-latency probe reuses
one row's tables across its bisection.  Here each is checked against
the per-point path on small homogeneous ensembles built to hit the
edge cases: integer work and outputs (exact frontier ties), K = 1,
fewer processors than tasks, bounds exactly on an interval's time
(admission is ``<=``), infinite bounds, and latency caps at or below
the compute bound.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import minimize_period, pareto_dp_best
from repro.algorithms.dp_period import candidate_periods
from repro.core.ensemble import Ensemble
from repro.experiments import get_method
from repro.experiments.harness import _solve_rows
from repro.util.logrel import from_reliability

FLOORS = st.sampled_from([0.0, 0.9])


@st.composite
def hom_cases(draw):
    """A small homogeneous ensemble and a sweep over its edge bounds."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, n + 1))

    def int_rows(lo, hi):
        row = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
        return np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=float)

    work, output = int_rows(1, 6), int_rows(0, 4)
    speed = draw(st.sampled_from([1.0, 2.0]))
    ensemble = Ensemble(
        work=work,
        output=output,
        speeds=np.full((1, p), speed),
        failure_rates=np.full((1, p), draw(st.sampled_from([1e-8, 1e-3, 5e-2]))),
        bandwidth=draw(st.sampled_from([1.0, 2.0])),
        link_failure_rate=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        max_replication=draw(st.integers(1, 3)),
    )
    # Bound pools from one row: every value a mapping's period can take
    # (so bounds sit exactly on interval times), latencies below, at and
    # above its compute bound, and inf on both axes.
    chain, platform = ensemble[draw(st.integers(0, m - 1))]
    periods = [float(x) for x in candidate_periods(chain, platform)] + [math.inf]
    compute = float(np.sum(chain.work)) / speed
    latencies = [compute - 0.5, compute, compute + 1.0, compute + 3.0, math.inf]
    bounds = draw(st.lists(
        st.tuples(st.sampled_from(periods), st.sampled_from(latencies)),
        min_size=1, max_size=6,
    ))
    return ensemble, bounds


def assert_kernel_matches_per_point(method_name, ensemble, bounds, objective, floor):
    method = get_method(method_name)
    out = method.solve_batch(
        ensemble, bounds, objective=objective, min_reliability=floor
    )
    solved, failure, values = out.solved, out.failure, out.values
    rows, _seconds = _solve_rows(
        method, list(ensemble), bounds, [None] * len(ensemble), objective, floor
    )
    for i in range(len(ensemble)):
        u_solved, u_failure, u_values, u_info = (
            rows.solved[i], rows.failure[i], rows.values[i], rows.infos[i]
        )
        assert np.array_equal(solved[i], u_solved)
        assert np.array_equal(failure[i], u_failure)
        assert np.array_equal(values[i], u_values)
        assert u_info is None


def probe_meets(chain, platform, period, max_latency, min_log_reliability):
    """A fresh per-point pareto_dp_best probe, as minimize_period runs it."""
    res = pareto_dp_best(chain, platform, max_period=period, max_latency=max_latency)
    return res.feasible and res.log_reliability >= min_log_reliability, res


@given(hom_cases())
@settings(max_examples=80, deadline=None)
def test_pareto_dp_kernel_matches_per_point(case):
    ensemble, bounds = case
    assert_kernel_matches_per_point("pareto-dp", ensemble, bounds, "reliability", 0.0)


@given(hom_cases(), FLOORS)
@settings(max_examples=80, deadline=None)
def test_dp_latency_kernel_matches_per_point(case, floor):
    ensemble, bounds = case
    assert_kernel_matches_per_point("dp-latency", ensemble, bounds, "latency", floor)


@given(hom_cases(), FLOORS)
@settings(max_examples=40, deadline=None)
def test_dp_period_finite_latency_probe_matches_per_point(case, floor):
    """minimize_period's shared-table probe against fresh pareto_dp_best
    solves: its witness is the per-point solve at the optimal period,
    and the next smaller candidate fails."""
    ensemble, bounds = case
    ell = from_reliability(floor) if floor else -math.inf

    for chain, platform in ensemble:
        for P, L in bounds:
            if math.isinf(L):
                continue  # the Algorithm 2 probe, not the frontier DP
            res = minimize_period(
                chain, platform, min_log_reliability=ell, max_period=P, max_latency=L
            )
            cands = candidate_periods(chain, platform)
            cands = cands[cands <= P]
            if not res.feasible:
                assert cands.size == 0 or not probe_meets(
                    chain, platform, float(cands[-1]), L, ell
                )[0]
                continue
            best = res.details["optimal_period"]
            ok, ref = probe_meets(chain, platform, best, L, ell)
            assert ok
            assert ref.mapping == res.mapping
            assert ref.evaluation == res.evaluation
            below = cands[cands < best]
            assert below.size == 0 or not probe_meets(
                chain, platform, float(below[-1]), L, ell
            )[0]
