"""Differential tests of the shared frontier-DP core on adversarial inputs.

The pareto-dp and dp-latency kernels run the frontier DP lane-vectorized,
one lane per (row, sweep point) in chunks of lanes; dp-period's two
probes read one row table across its bisection, and its kernel bisects
all lanes in lockstep on both of its probes.
Here each is checked against the per-point path on small homogeneous
ensembles built to hit the edge cases: integer work and outputs (exact
frontier ties), K = 1, fewer processors than tasks, bounds exactly on
an interval's time (admission is ``<=``), infinite bounds, latency caps
at or below the compute bound, lanes spanning several chunks, finite
and infinite budgets side by side in one chunk, and failure-free
platforms where every value ties.  The lane DP's frontiers are also
compared with the scalar DP's state by state, parents included, which
pins the tie rule itself.  The engine's dominated-candidate filter is
checked against the unfiltered Pareto sort on drawn candidate sets, and
the kernels' columnar witness scorer against ``evaluate_mapping``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    UnitResults,
    brute_force_best,
    ilp_best,
    minimize_latency,
    minimize_period,
    optimize_reliability,
    optimize_reliability_period,
    pareto_dp_best,
)
from repro.algorithms.batch import record_solved, score_hom_divisions
from repro.algorithms.batch_dp import (
    _CHUNK, _FrontierLanes, _dense_rank, _lane_dp, _pareto_order, _undominated,
)
from repro.algorithms.dp_period import candidate_periods
from repro.algorithms._hom_dp import HomTable, hom_reliability_dp
from repro.algorithms.pareto_dp import _frontier_dp, _most_reliable
from repro.core import Platform, TaskChain
from repro.core.ensemble import Ensemble
from repro.core.evaluation import evaluate_mapping
from repro.experiments import get_method
from repro.experiments.cache import unit_record
from repro.experiments.harness import _solve_unit
from repro.solve.problem import Problem
from repro.util.logrel import from_reliability

FLOORS = st.sampled_from([0.0, 0.9])

#: A failure rate at which ``exp(-rate * work / speed)`` underflows to 0
#: for interval work of 3 or more at speed 1 (``work * rate / speed``
#: past about 745) but not for a single light task.
UNDERFLOW = 300.0

#: (method, objective, reliability floor) of each frontier kernel cell.
FRONTIER_CELLS = [
    ("pareto-dp", "reliability", 0.0),
    ("dp-latency", "latency", 0.0),
    ("dp-latency", "latency", 0.9),
]


def per_row(method, ensemble, bounds, objective, floor):
    """The harness's per-row solves, one unit per ensemble row."""
    out = UnitResults.empty(len(ensemble), len(bounds), objective)
    for r in range(len(ensemble)):
        base = Problem(*ensemble[r], objective=objective, min_reliability=floor)
        out.set_row(r, _solve_unit(method, base, bounds, objective)[0], 0)
    return out


@st.composite
def hom_cases(
    draw, mixed_latency=False, failure_rates=(1e-8, 1e-3, 5e-2, UNDERFLOW), max_tasks=6
):
    """A small homogeneous ensemble and a sweep over its edge bounds;
    *mixed_latency* adds one unbounded-latency point and one whose
    finite latency bound is at or above that row's compute bound.
    At the :data:`UNDERFLOW` rate, some intervals' reliability
    underflows to 0 (log-reliability -inf) and others' does not."""
    n = draw(st.integers(2, max_tasks))
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
        failure_rates=np.full((1, p), draw(st.sampled_from(failure_rates))),
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
    if mixed_latency:
        bounds += [
            (draw(st.sampled_from(periods)), math.inf),
            (draw(st.sampled_from(periods)), draw(st.sampled_from(latencies[1:-1]))),
        ]
    return ensemble, bounds


def assert_kernel_matches_per_point(method_name, ensemble, bounds, objective, floor):
    method = get_method(method_name)
    out = method.solve_batch(
        ensemble, bounds, objective=objective, min_reliability=floor
    )
    solved, failure, values = out.solved, out.failure, out.values
    rows = per_row(method, ensemble, bounds, objective, floor)
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


def first_probe_floor(ensemble, bound):
    """A reliability floor whose log is exactly the DP log-reliability
    that some row's first dp-period probe at *bound* (the probe at its
    loosest candidate period) compares with the floor, or ``None``: a
    floor on which that probe's ``>=`` decides."""
    P, L = bound
    for chain, platform in ensemble:
        cands = candidate_periods(chain, platform)
        cands = cands[cands <= P]
        if cands.size == 0:
            continue
        table = HomTable(chain, platform)
        if math.isinf(L):
            ell = hom_reliability_dp(table, float(cands[-1])).log_reliability
        else:
            budget = L - table.total_compute
            best = None
            if budget >= 0:
                front = _frontier_dp(table, float(cands[-1]), budget)
                best = _most_reliable(front[table.n])
            ell = -math.inf if best is None else best[0]
        if not -math.inf < ell < 0.0:
            continue
        # exp and log round, so look a few ulps around exp(ell).
        up = down = math.exp(ell)
        for _ in range(8):
            for r in (up, down):
                if 0.0 < r < 1.0 and math.log(r) == ell:
                    return r
            up, down = math.nextafter(up, 1.0), math.nextafter(down, 0.0)
    return None


@given(
    hom_cases(mixed_latency=True, failure_rates=(1e-8, 1e-3, 5e-2, 0.3, UNDERFLOW)),
    st.sampled_from([0.0, 0.9, "inf", "finite"]),
)
@settings(max_examples=80, deadline=None)
def test_dp_period_kernel_matches_per_row(case, floor):
    """The dp-period kernel on one sweep mixing its two probes (the
    Algorithm 2 DP for unbounded latency, the frontier DP otherwise):
    arrays, probe-count infos and cache record bytes equal the per-row
    minimize_period's.  Besides floors 0 and 0.9, a floor may sit
    exactly on the value the first probe of the sweep's unbounded
    ("inf") or finite-latency ("finite") point compares with it."""
    ensemble, bounds = case
    if isinstance(floor, str):
        floor = first_probe_floor(ensemble, bounds[-2 if floor == "inf" else -1])
        assume(floor is not None)
    method = get_method("dp-period")
    out = method.solve_batch(ensemble, bounds, objective="period", min_reliability=floor)
    rows = per_row(method, ensemble, bounds, "period", floor)
    for name in out.ARRAYS:
        assert np.array_equal(getattr(out, name), getattr(rows, name)), name
    assert out.infos == rows.infos
    for r in range(len(ensemble)):
        assert json.dumps(unit_record(out, r, method.name), sort_keys=True) == json.dumps(
            unit_record(rows, r, method.name), sort_keys=True
        )


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


def int_ensemble(seed, m, n, p, max_replication, failure_rate=1e-3, link_rate=1e-4):
    """A homogeneous ensemble of *m* rows with small integer work and
    outputs (many exact frontier ties)."""
    rng = np.random.default_rng(seed)
    return Ensemble(
        work=rng.integers(1, 7, (m, n)).astype(float),
        output=rng.integers(0, 5, (m, n)).astype(float),
        speeds=np.full((1, p), 1.0),
        failure_rates=np.full((1, p), failure_rate),
        bandwidth=1.0,
        link_failure_rate=link_rate,
        max_replication=max_replication,
    )


def assert_unit_results_match(method_name, ensemble, bounds, objective, floor):
    """Every result array of the kernel (witness period and latency
    included) equals the per-point path's; returns the kernel's."""
    method = get_method(method_name)
    out = method.solve_batch(
        ensemble, bounds, objective=objective, min_reliability=floor
    )
    rows = per_row(method, ensemble, bounds, objective, floor)
    for name in out.ARRAYS:
        assert np.array_equal(getattr(out, name), getattr(rows, name)), name
    return out


@pytest.mark.parametrize("method_name,objective,floor", FRONTIER_CELLS)
def test_frontier_kernel_lanes_span_chunks(method_name, objective, floor):
    ensemble = int_ensemble(3, m=12, n=7, p=5, max_replication=2)
    chain, platform = ensemble[0]
    periods = [float(x) for x in candidate_periods(chain, platform)]
    bounds = [(P, L) for P in (periods[2], periods[len(periods) // 2], math.inf)
              for L in (43.0, 60.0, math.inf)]
    # Every budget is >= 0 (compute bounds are <= 42), so every
    # (row, point) is a lane, and the lanes need more than two chunks.
    assert len(ensemble) * len(bounds) > 2 * _CHUNK
    out = assert_unit_results_match(method_name, ensemble, bounds, objective, floor)
    assert out.solved.any() and not out.solved.all()


@pytest.mark.parametrize("method_name,objective,floor", FRONTIER_CELLS)
def test_frontier_kernel_latencies_below_compute_bound(method_name, objective, floor):
    """No lane survives: the kernel answers all-infeasible, no error."""
    ensemble = int_ensemble(5, m=4, n=5, p=4, max_replication=3)
    below = float(ensemble.work.sum(axis=1).min()) - 1.0
    bounds = [(math.inf, below), (10.0, below / 2)]
    out = assert_unit_results_match(method_name, ensemble, bounds, objective, floor)
    assert not out.solved.any()


@pytest.mark.parametrize("method_name,objective,floor", FRONTIER_CELLS)
def test_frontier_kernel_mixed_budgets_in_one_chunk(method_name, objective, floor):
    """Finite, infinite and negative budgets side by side in one chunk."""
    ensemble = int_ensemble(7, m=3, n=6, p=6, max_replication=2)
    # Compute bounds 30, 19 and 21: L = 25 and 22 leave row 0 a negative
    # budget and rows 1 and 2 small finite ones.
    assert ensemble.work.sum(axis=1).tolist() == [30.0, 19.0, 21.0]
    bounds = [(math.inf, math.inf), (8.0, 25.0), (8.0, math.inf),
              (math.inf, 32.0), (12.0, 22.0)]
    assert len(ensemble) * len(bounds) <= _CHUNK
    out = assert_unit_results_match(method_name, ensemble, bounds, objective, floor)
    assert out.solved.any() and not out.solved.all()


@pytest.mark.parametrize("method_name,objective,floor", FRONTIER_CELLS)
def test_frontier_kernel_perfectly_reliable_ties(method_name, objective, floor):
    """Failure-free processors and links: every mapping has reliability
    1, so every frontier comparison of values ties and the tie rules
    alone (first inserted point, lowest k) pick the witnesses, whose
    period and latency must match the per-point path's."""
    ensemble = int_ensemble(11, m=6, n=6, p=5, max_replication=3,
                            failure_rate=0.0, link_rate=0.0)
    chain, platform = ensemble[0]
    periods = [float(x) for x in candidate_periods(chain, platform)]
    bounds = [(periods[3], math.inf), (periods[len(periods) // 2], 40.0),
              (math.inf, 30.0), (math.inf, math.inf)]
    out = assert_unit_results_match(method_name, ensemble, bounds, objective, floor)
    assert out.solved.any()


def lane_frontiers_match_scalar(ensemble, bounds):
    """Every lane's frontiers, parents included, against the scalar DP.

    All (row, point) lanes run in one :meth:`_FrontierLanes.run`; each
    lane's points, grouped by state ``(t, k)`` in row order, must equal
    the scalar ``front[t][k]`` point for point, with the scalar payload
    ``(j, k_prev, q, parent_cost)`` read off the lane's parent.  That
    pins the tie rule itself (the first inserted of two equal points
    stays), not only the results it leads to.
    """
    tables = _FrontierLanes(ensemble, np.arange(len(ensemble)))
    n, p = tables.n, tables.p
    lane_row, P, budget, fronts = [], [], [], []
    for r, (chain, platform) in enumerate(ensemble):
        table = HomTable(chain, platform)
        for max_period, max_latency in bounds:
            comm_budget = max_latency - table.total_compute
            if comm_budget >= 0:
                lane_row.append(r)
                P.append(max_period)
                budget.append(comm_budget)
                fronts.append(_frontier_dp(table, max_period, comm_budget))
    if not fronts:
        return
    lane, t, k, q, parent, cost, value = tables.run(
        np.array(lane_row), np.array(P), np.array(budget)
    )
    got = [{} for _ in fronts]
    for x in np.flatnonzero(t > 0).tolist():
        up = parent[x]
        got[lane[x]].setdefault((t[x], k[x]), []).append(
            (cost[x], value[x], t[up], k[up], q[x], cost[up])
        )
    for front, lane_got in zip(fronts, got):
        want = {
            (i, kk): [(c, v, *payload) for c, v, payload in front[i][kk]]
            for i in range(1, n + 1)
            for kk in range(p + 1)
            if front[i][kk] is not None
        }
        assert lane_got == want


@given(hom_cases())
@settings(max_examples=60, deadline=None)
def test_lane_frontiers_match_scalar_dp(case):
    ensemble, bounds = case
    lane_frontiers_match_scalar(ensemble, bounds)


@given(hom_cases())
@settings(max_examples=40, deadline=None)
def test_lane_dp_on_frontier_tables_matches_scalar_dp(case):
    """The unbounded-latency dp-period probe runs Algorithm 2 on the
    frontier engine's stacked tables: every lane's ``F`` table equals
    the scalar ``hom_reliability_dp`` table bit for bit."""
    ensemble, bounds = case
    tables = _FrontierLanes(ensemble, np.arange(len(ensemble)))
    lane_row = np.repeat(np.arange(len(ensemble)), len(bounds))
    P = np.tile([max_period for max_period, _ in bounds], len(ensemble))
    F, reach, _, _ = _lane_dp(tables, lane_row, P, track=False)
    for lane, (r, max_period) in enumerate(zip(lane_row.tolist(), P.tolist())):
        chain, platform = ensemble[r]
        scalar = hom_reliability_dp(HomTable(chain, platform), max_period)
        assert np.array_equal(F[:, lane, :], scalar.table)
        assert reach[-1, lane, 1:].any() == (scalar.pieces is not None)


@given(hom_cases())
@settings(max_examples=60, deadline=None)
def test_algorithm_2_equals_frontier_dp_at_infinite_budget(case):
    """At every candidate period, Algorithm 2's best log-reliability is
    the frontier DP's most reliable final value at an infinite budget,
    bit for bit, both computed on one shared table (the invariant that
    lets minimize_period's two probes share a table and one floor
    comparison); a period no mapping fits is infeasible in both."""
    ensemble, _bounds = case
    for chain, platform in ensemble:
        table = HomTable(chain, platform)
        for period in [float(c) for c in table.candidate_periods()] + [math.inf]:
            dp = hom_reliability_dp(table, period)
            best = _most_reliable(_frontier_dp(table, period, math.inf)[table.n])
            if best is None:
                assert dp.pieces is None and dp.log_reliability == -math.inf
            else:
                assert dp.log_reliability == best[0]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_lane_frontiers_match_scalar_dp_all_ties(seed):
    """Zero failure rates: every value is 0, so equal-cost points tie
    exactly and only the insertion order decides which one stays."""
    ensemble = int_ensemble(seed, m=3, n=6, p=6, max_replication=3,
                            failure_rate=0.0, link_rate=0.0)
    chain, platform = ensemble[0]
    periods = [float(x) for x in candidate_periods(chain, platform)]
    lane_frontiers_match_scalar(
        ensemble,
        [(math.inf, math.inf), (periods[len(periods) // 2], math.inf), (8.0, 35.0)],
    )


def assert_agrees_with_brute_force(res, oracle, objective="reliability", rel=1e-9):
    """Same feasibility as the oracle and, when feasible, the same
    optimum (log-reliability, or the minimized criterion)."""
    assert res.feasible == oracle.feasible
    if oracle.feasible:
        if objective == "reliability":
            assert res.log_reliability == pytest.approx(oracle.log_reliability, rel=rel)
        else:
            assert res.objective_value(objective) == pytest.approx(
                oracle.objective_value(objective), rel=rel
            )


def exact_methods_agree_with_brute_force(chain, platform, bounds):
    """Algorithms 1/2, pareto-dp, dp-latency, dp-period (at the bound's
    latency, finite or not), ilp and ilp-bb against brute force."""
    assert_agrees_with_brute_force(
        optimize_reliability(chain, platform), brute_force_best(chain, platform)
    )
    for P, L in bounds:
        assert_agrees_with_brute_force(
            optimize_reliability_period(chain, platform, max_period=P),
            brute_force_best(chain, platform, max_period=P),
        )
        oracle = brute_force_best(chain, platform, max_period=P, max_latency=L)
        assert_agrees_with_brute_force(
            pareto_dp_best(chain, platform, max_period=P, max_latency=L), oracle
        )
        for backend in ("scipy", "branch-bound"):
            assert_agrees_with_brute_force(
                ilp_best(chain, platform, max_period=P, max_latency=L, backend=backend),
                oracle, rel=1e-6,
            )
        assert_agrees_with_brute_force(
            minimize_latency(chain, platform, max_period=P),
            brute_force_best(chain, platform, max_period=P, objective="latency"),
            "latency",
        )
        assert_agrees_with_brute_force(
            minimize_period(chain, platform, max_latency=L),
            brute_force_best(chain, platform, max_latency=L, objective="period"),
            "period",
        )


def test_certainly_failing_mapping_is_a_mapping():
    """Both tasks' reliability underflows to 0 on every replica set, so
    every mapping has log-reliability -inf; each exact method, and every
    kernel, still returns one, at every latency bound."""
    chain = TaskChain([1e6, 1e6], [1.0, 0.0])
    platform = Platform.homogeneous_platform(3, failure_rate=1e-2, max_replication=2)
    bounds = [(math.inf, math.inf), (math.inf, 1e9)]
    exact_methods_agree_with_brute_force(chain, platform, bounds)
    assert optimize_reliability(chain, platform).log_reliability == -math.inf
    ensemble = Ensemble.from_instances([(chain, platform)])
    for name, objective in [
        ("pareto-dp", "reliability"), ("dp-latency", "latency"),
        ("dp-period", "period"), ("heuristic", "reliability"),
    ]:
        out = get_method(name).solve_batch(ensemble, bounds, objective=objective)
        assert out.solved.all(), name
        assert (out.failure == 1.0).all(), name


@given(hom_cases(failure_rates=(UNDERFLOW,), max_tasks=4))
@settings(max_examples=25, deadline=None)
def test_exact_methods_agree_with_brute_force_on_underflow_rows(case):
    """Rows where some intervals' reliability underflows to 0 and others'
    does not: every exact method matches the brute-force oracle."""
    ensemble, bounds = case
    for chain, platform in ensemble:
        exact_methods_agree_with_brute_force(chain, platform, bounds[:3])


@st.composite
def candidate_sets(draw):
    """One row's frontier candidates: segments (states), costs and
    values with exact ties on both axes, ``-inf`` values included."""
    size = draw(st.integers(1, 80))

    def column(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))

    seg = np.array(column(st.integers(0, 5)), dtype=np.int32)
    cost = np.array(column(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5])))
    value = np.array(column(st.one_of(
        st.sampled_from([-math.inf, -3.0, -1.0, -0.5, 0.0]),
        st.floats(-4.0, 0.0),
    )))
    return seg, cost, value


@given(candidate_sets())
@settings(max_examples=300, deadline=None)
def test_undominated_filter_keeps_the_pareto_order(case):
    """The frontier engine drops dominated candidates before the Pareto
    sort: the sort over what is left (cost ranks re-drawn over the kept
    costs, as the engine does) gives the same points in the same order
    as the sort over every candidate."""
    seg, cost, value = case
    everything = _pareto_order(seg, _dense_rank(cost), value)
    kept = _undominated(seg, cost, value)
    filtered = kept[_pareto_order(seg[kept], _dense_rank(cost[kept]), value[kept])]
    assert np.array_equal(filtered, everything)


@st.composite
def hom_witnesses(draw):
    """A homogeneous ensemble with fractional work, outputs, speed and
    bandwidth (so operand order shows in the bits), and a few mappings
    of its rows, all with one interval count: ``(row, boundaries,
    replica counts)``, the counts reaching ``kmax`` (up to 5) and every
    processor where they can.  At the :data:`UNDERFLOW` rate some
    stages' reliability underflows to 0."""
    n, p, r = draw(st.integers(2, 8)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    size = st.floats(0.05, 50.0)

    def rows(elements):
        row = st.lists(elements, min_size=n, max_size=n)
        return np.array(draw(st.lists(row, min_size=r, max_size=r)), dtype=float)

    ensemble = Ensemble(
        work=rows(size),
        output=rows(st.one_of(st.just(0.0), size)),
        speeds=np.full((1, p), draw(st.floats(0.5, 4.0))),
        failure_rates=np.full((1, p), draw(st.sampled_from([0.0, 1e-8, 1e-3, 5e-2, UNDERFLOW]))),
        bandwidth=draw(st.floats(0.5, 4.0)),
        link_failure_rate=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        max_replication=draw(st.integers(1, 5)),
    )
    kmax = min(ensemble.max_replication, p)
    m = draw(st.integers(1, min(n, p)))
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, r - 1))
        cuts = draw(st.sets(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1))
        counts, spare = [1] * m, p - m
        for j in draw(st.permutations(range(m))):
            most = min(kmax - 1, spare)
            extra = draw(st.one_of(st.just(most), st.integers(0, most)))
            counts[j] += extra
            spare -= extra
        entries.append((row, [0, *sorted(cuts), n], counts))
    return ensemble, entries


@given(hom_witnesses())
@settings(max_examples=200, deadline=None)
def test_columnar_scorer_matches_evaluate_mapping(case):
    """The frontier kernels score their witnesses in columns; every
    recorded number equals ``evaluate_mapping`` of the witness mapping,
    bit for bit, on underflowing rows and at ``q = kmax`` too."""
    ensemble, entries = case
    rows = np.array([row for row, _, _ in entries])
    bnd = np.array([b for _, b, _ in entries])
    counts = np.array([c for _, _, c in entries])
    ell, wp, wl = score_hom_divisions(ensemble, rows, bnd, counts)
    hit = (np.arange(len(entries)), np.zeros(len(entries), dtype=np.int64))
    scored = {}
    for objective in ("reliability", "period", "latency"):
        out = scored[objective] = UnitResults.empty(len(entries), 1, objective)
        record_solved(out, hit, ell, wp, wl, objective)
    for x, (row, b, c) in enumerate(entries):
        table = HomTable(*ensemble[row])
        ev = evaluate_mapping(table.mapping(list(zip(b[:-1], b[1:], c))))
        want = {
            "failure": ev.failure_probability,
            "reliability": ev.reliability,
            "period": ev.worst_case_period,
            "latency": ev.worst_case_latency,
        }
        got = {
            "failure": scored["reliability"].failure[x, 0],
            "reliability": scored["reliability"].values[x, 0],
            "period": scored["period"].values[x, 0],
            "latency": scored["latency"].values[x, 0],
        }
        for out in scored.values():
            assert out.period[x, 0] == ev.worst_case_period
            assert out.latency[x, 0] == ev.worst_case_latency
        assert {k: float(v).hex() for k, v in got.items()} == {
            k: float(v).hex() for k, v in want.items()
        }
