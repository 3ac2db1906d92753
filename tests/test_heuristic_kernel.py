"""Differential tests of the heuristic kernel on adversarial inputs.

batch_heuristic_best must reproduce per-row heuristic_best bit for bit
under every selection rule and allocation mode.  The ensembles here are
small and built to hit the edge cases: integer work and outputs (exact
log-reliability ties across candidates), bounds so tight that no
candidate's allocation seeds every interval, K = 1, fewer processors
than tasks and a single processor, near-zero and huge failure rates
(log-reliabilities at 0 and at -inf), infinite bounds, mixed
homogeneous/heterogeneous rows, and reliability floors.  A floor
reaches this kernel only through a direct call: run_sweep rejects one
under the reliability objective, so this is what pins the
select-then-check floor rule of best-then-check.

A fixed ensemble spreads the heterogeneous kernel's lanes (candidate,
row, sweep point) over several chunks and compares sign bits too; the
bisection-search kernels (het-period-search / het-latency-search),
built on the same probe tables, are fuzzed against the harness's
per-row path on the same ensembles, probe counts included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import UnitResults, batch, batch_heuristic_best, heuristic_best
from repro.core.ensemble import Ensemble
from repro.experiments import get_method
from repro.experiments.harness import _solve_unit
from repro.solve.problem import Problem
from repro.util import logrel
from repro.util.logrel import from_reliability

RATES = [0.0, 1e-300, 1e-12, 1e-3, 0.5, 50.0, 200.0, 1e3]
PERIODS = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, math.inf]
LATENCIES = [1.0, 3.0, 5.0, 8.0, 12.0, 15.0, 20.0, 30.0, math.inf]


def per_row(method, ensemble, bounds, objective, floor):
    """The harness's per-row solves, one unit per ensemble row."""
    out = UnitResults.empty(len(ensemble), len(bounds), objective)
    for r in range(len(ensemble)):
        base = Problem(*ensemble[r], objective=objective, min_reliability=floor)
        out.set_row(r, _solve_unit(method, base, bounds, objective)[0], 0)
    return out


@st.composite
def cases(draw):
    """A small ensemble, a sweep over its edge bounds, and a solver
    configuration."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, n + 2))

    def int_rows(lo, hi, width):
        row = st.lists(st.integers(lo, hi), min_size=width, max_size=width)
        return np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=float)

    work, output = int_rows(1, 6, n), int_rows(0, 4, n)
    speeds, rates = int_rows(1, 3, p), int_rows(0, len(RATES) - 1, p)
    rates = np.array(RATES)[rates.astype(int)]
    for i in range(m):
        # Homogeneous rows beside heterogeneous ones: allocation="auto"
        # splits the ensemble between the two probe tables.
        if draw(st.booleans()):
            speeds[i], rates[i] = speeds[i, 0], rates[i, 0]
    ensemble = Ensemble(
        work=work,
        output=output,
        speeds=speeds,
        failure_rates=rates,
        bandwidth=draw(st.sampled_from([1.0, 2.0])),
        link_failure_rate=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        max_replication=draw(st.integers(1, 3)),
    )
    bounds = draw(st.lists(
        st.tuples(st.sampled_from(PERIODS), st.sampled_from(LATENCIES)),
        min_size=1, max_size=5,
    ))
    config = {
        "which": draw(st.sampled_from(["heur-l", "heur-p", "both"])),
        "selection": draw(st.sampled_from(["feasible-best", "best-then-check"])),
        "allocation": draw(st.sampled_from(["auto", "het"])),
    }
    floor = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0 - 1e-9]))
    return ensemble, bounds, config, floor


# A certainly-failing stage scores -inf - -inf in both allocations; the
# scalar strict '>' and the kernel's NaN mask skip it alike, and neither
# path may surface NumPy's invalid-value warning to users.
@pytest.mark.filterwarnings("error:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(cases())
def test_kernel_matches_per_row_heuristic_best(case):
    ensemble, bounds, config, floor = case
    out = batch_heuristic_best(ensemble, bounds, min_reliability=floor, **config)
    floor_log = from_reliability(floor) if floor else -math.inf
    for i, (chain, platform) in enumerate(ensemble):
        for pt, (P, L) in enumerate(bounds):
            res = heuristic_best(
                chain, platform, max_period=P, max_latency=L,
                min_log_reliability=floor_log, **config,
            )
            if res.feasible:
                ev = res.evaluation
                witness = (ev.worst_case_period, ev.worst_case_latency)
            else:
                witness = (math.inf, math.inf)
            got = (
                bool(out.solved[i, pt]), float(out.failure[i, pt]),
                float(out.values[i, pt]),
                float(out.period[i, pt]), float(out.latency[i, pt]),
            )
            want = (
                res.feasible, res.failure_probability,
                res.objective_value("reliability"), *witness,
            )
            assert got == want, (i, (P, L))
    assert out.infos == [None] * len(ensemble)


def _bits(a):
    """An array's values and sign bits, for bit-level comparison."""
    a = np.asarray(a)
    return a.tolist(), np.signbit(a).tolist()


def _tie_ensemble():
    """24 rows that put the het kernel's lanes across several chunks.

    Every fourth row is homogeneous; the rest mix speeds and rates.
    Rows 1 and 5 have all-equal works and outputs (exact ties between
    candidates), and row 2's processors all fail certainly (rate 1e4).
    """
    rng = np.random.default_rng(7)
    r, n, p = 24, 6, 6
    work = rng.integers(1, 5, (r, n)).astype(float)
    output = rng.integers(0, 4, (r, n)).astype(float)
    speeds = rng.integers(1, 4, (r, p)).astype(float)
    rates = np.array(RATES)[rng.integers(0, len(RATES), (r, p))]
    work[[1, 5]] = 2.0
    output[[1, 5]] = 1.0
    rates[2] = 1e4
    for i in range(0, r, 4):
        speeds[i], rates[i] = speeds[i, 0], rates[i, 0]
    return Ensemble(
        work=work, output=output, speeds=speeds, failure_rates=rates,
        bandwidth=1.0, link_failure_rate=1e-2, max_replication=2,
    )


@pytest.mark.parametrize("allocation", ["auto", "het"])
@pytest.mark.parametrize("selection", ["feasible-best", "best-then-check"])
def test_kernel_matches_per_row_across_lane_chunks(selection, allocation):
    ensemble = _tie_ensemble()
    bounds = [(math.inf, math.inf), (2.0, math.inf), (math.inf, 8.0),
              (1.0, 5.0), (3.0, 12.0), (4.0, math.inf), (0.5, 20.0), (6.0, 15.0)]
    config = {"which": "both", "selection": selection, "allocation": allocation}
    het_rows = len(ensemble) if allocation == "het" else int(
        (~ensemble.homogeneous_rows()).sum()
    )
    candidates = 2 * min(ensemble.n_tasks, ensemble.p)
    assert candidates * het_rows * len(bounds) > 2 * batch._CHUNK

    out = batch_heuristic_best(ensemble, bounds, **config)
    want = UnitResults.empty(len(ensemble), len(bounds), "reliability")
    for i, (chain, platform) in enumerate(ensemble):
        for pt, (P, L) in enumerate(bounds):
            res = heuristic_best(chain, platform, max_period=P, max_latency=L, **config)
            want.solved[i, pt] = res.feasible
            want.failure[i, pt] = res.failure_probability
            want.values[i, pt] = res.objective_value("reliability")
            if res.feasible:
                want.period[i, pt] = res.evaluation.worst_case_period
                want.latency[i, pt] = res.evaluation.worst_case_latency
    for name in UnitResults.ARRAYS:
        assert _bits(getattr(out, name)) == _bits(getattr(want, name)), name
    # The grid reaches both sides of feasibility.
    assert out.solved.any() and not out.solved.all()


@pytest.mark.filterwarnings("error:invalid value encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from(["period", "latency"]), st.sampled_from([0.0, 0.9]))
def test_search_kernels_match_per_row(case, criterion, floor):
    ensemble, bounds, _, _ = case
    method = get_method(f"het-{criterion}-search")
    out = method.solve_batch(
        ensemble, bounds, objective=criterion, min_reliability=floor
    )
    rows = per_row(method, ensemble, bounds, criterion, floor)
    for name in UnitResults.ARRAYS:
        assert _bits(getattr(out, name)) == _bits(getattr(rows, name)), name
    assert out.infos == rows.infos


#: Log-reliabilities at the exact maps' branch points: both zeros,
#: -inf, NaN, subnormals, either side of the -log 2 split, and the exp
#: underflow near -745.
_NEG_LOG2 = -math.log(2.0)
EDGES = [
    0.0, -0.0, -math.inf, math.nan, -5e-324, -1e-310, -2.2250738585072014e-308,
    _NEG_LOG2, math.nextafter(_NEG_LOG2, 0.0), math.nextafter(_NEG_LOG2, -math.inf),
    -744.44, -745.13, -745.14, -746.0, -1e4, -1e308,
]
log_rels = st.lists(
    st.one_of(
        st.sampled_from(EDGES),
        st.floats(max_value=0.0),
        st.floats(_NEG_LOG2 - 1e-9, _NEG_LOG2 + 1e-9),
        st.floats(-800.0, -700.0),
        st.floats(-1e-300, 0.0),
    ),
    max_size=40,
)


def _float_bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(log_rels)
def test_builtin_maps_match_scalar_functions(values):
    """The kernels' maps over libm builtins equal the scalar functions
    element for element, bit for bit (sign of zero and NaN included)."""
    x = np.array(values, dtype=float)
    for exact_map, scalar in (
        (batch._log_failure_map, logrel.log_failure),
        (batch._parallel_tail_map, batch._parallel_tail),
        (batch._failure_map, logrel.failure),
        (batch._reliability_map, logrel.reliability),
    ):
        want = [scalar(v) for v in values]
        assert _float_bits(exact_map(x)) == _float_bits(want), scalar.__name__
        # _map_distinct's dedupe keeps the bits.
        assert _float_bits(batch._map_distinct(exact_map, x)) == _float_bits(want)


@given(log_rels, st.floats(min_value=5e-324), st.integers(0, 40))
def test_builtin_maps_reject_positive_log_reliability(values, positive, at):
    """A positive element raises the scalar path's error: ValueError
    (a math domain error), or OverflowError past ``expm1``'s range."""
    x = np.array(values[:at] + [positive] + values[at:], dtype=float)
    error = ValueError if positive < 709.0 else (ValueError, OverflowError)
    for exact_map, scalar in (
        (batch._log_failure_map, logrel.log_failure),
        (batch._parallel_tail_map, batch._parallel_tail),
    ):
        with pytest.raises(error) as want:
            scalar(positive)
        with pytest.raises(want.type):
            exact_map(x)


#: Sweep grids with one period axis and two latency axes, so the second
#: grid re-selects the first one's lanes under other latency bounds.
GRID_A = [(math.inf, math.inf), (600.0, 900.0), (150.0, 400.0)]
GRID_B = [(math.inf, 800.0), (600.0, math.inf), (150.0, 1000.0)]
GRID_C = [(200.0, 900.0), (400.0, math.inf), (1000.0, 1000.0)]

#: (method, grid, rows, floor) in the order they run on one shared
#: ensemble: the grid probe's heuristic, the Section 8 heuristics under
#: both allocation modes and selection rules, row subsets, floors, and
#: both bisection searches.
SHARED_CALLS = [
    ("heuristic", [(math.inf, math.inf)], None, 0.0),
    ("heur-l", GRID_A, None, 0.0),
    ("heur-l-paper", GRID_A, None, 0.0),
    ("heur-p", GRID_A, [3, 1], 0.9),
    ("heur-p-paper", GRID_A, [3, 1], 0.0),
    ("heur-p-paper", GRID_B, [3, 1], 0.9),
    ("heur-p-paper", GRID_A, [0, 2], 0.0),
    ("heur-p-paper", GRID_C, [0, 2], 0.0),
    ("heur-l-paper", GRID_B, [0, 2, 4], 0.9),
    ("het-period-search", GRID_A, None, 0.9),
    ("heur-l", GRID_B, [4, 0], 0.0),
    ("het-latency-search", GRID_B, [1, 2], 0.0),
    ("heur-l-paper", GRID_A, None, 0.0),
    ("heuristic", GRID_B, None, 0.9),
]


@pytest.mark.parametrize("scenario", ["section8-het", "section8-hom"])
def test_shared_tables_leak_nothing(scenario):
    """Every heuristic kernel call on one ensemble reads the shared
    candidate tables of its heuristics and, on heterogeneous tables,
    their last lanes.  Each call must still equal the same call on a
    fresh ensemble, in all five arrays and the infos."""
    from repro.scenarios import generate_ensembles, get_scenario

    def fresh():
        [ensemble] = generate_ensembles(get_scenario(scenario).spec, n_instances=5, seed=3)
        return ensemble

    shared = fresh()
    for name, grid, rows, floor in SHARED_CALLS:
        method = get_method(name)
        options = {"rows": rows, "objective": method.objectives[0], "min_reliability": floor}
        got = method.solve_batch(shared, grid, **options)
        want = method.solve_batch(fresh(), grid, **options)
        for array in UnitResults.ARRAYS:
            assert _bits(getattr(got, array)) == _bits(getattr(want, array)), (name, array)
        assert got.infos == want.infos, name
        # One table per (kind, heuristic); a heterogeneous table keeps
        # one lane slot, bisections included.
        assert len(shared._derived) <= 4
        assert {heur for _, _, heur in shared._derived} <= set(batch._NAMES)
        for table in shared._derived.values():
            if isinstance(table, batch._HetTable) and table.lanes is not None:
                _, lanes = table.lanes
                assert len(lanes) == 4 and all(not a.flags.writeable for a in lanes)
    assert any(isinstance(t, batch._HetTable) for t in shared._derived.values())
