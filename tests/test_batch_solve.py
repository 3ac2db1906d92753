"""The batched solving layer: kernel-level bit-identity with the
per-instance heuristics, the harness's batch serving, the registry's
solve_batch capability, and the UnitResults contract every kernel and
per-row unit returns."""

import concurrent.futures
import math

import numpy as np
import pytest

from repro.algorithms import (
    UnitResults,
    batch_bisection_search,
    batch_heuristic_best,
    batch_minimize_latency,
    batch_minimize_period,
    batch_pareto_dp,
    heuristic_best,
)
from repro.experiments import METHODS, Method, get_method, run_sweep
from repro.experiments.cache import ResultCache
from repro.experiments.harness import _solve_unit
from repro.obs import telemetry as obs
from repro.scenarios import generate_ensemble, generate_ensembles, get_scenario
from repro.solve import Planner, Problem

BOUNDS = [(math.inf, math.inf), (600.0, 900.0), (150.0, 400.0)]

#: Unbounded-latency sweep points: dp-period probes them with the
#: Algorithm 2 DP (BOUNDS' finite-latency points take its frontier-DP
#: probe).
PERIOD_BOUNDS = [(math.inf, math.inf), (600.0, math.inf), (150.0, math.inf)]

#: Frontier-DP grids on section8-hom's scale (compute bound ~850-900):
#: a period axis under one finite latency bound (the loosest points
#: admit every interval, so they share a DP run), and a latency axis
#: under one period bound whose first point falls below the compute
#: bound.
PERIOD_AXIS = [(P, 1000.0) for P in
               (100.0, 150.0, 200.0, 300.0, 450.0, 700.0, 1000.0, math.inf)]
LATENCY_AXIS = [(250.0, L) for L in
                (850.0, 880.0, 900.0, 920.0, 950.0, 1000.0, 1100.0, math.inf)]

#: Every builtin scenario, shrunk to equivalence-test size (the full
#: dimensions are benchmark territory; bit-identity does not care).
SHRINK = {
    "section8-hom": {"n_instances": 3},
    "section8-het": {"n_instances": 2},
    "long-chain": {"n_instances": 2, "n_tasks": 30},
    "scaling-stress": {"n_instances": 2, "n_tasks": 20, "p": 8},
    "high-heterogeneity": {"n_instances": 2},
    "unreliable-links": {"n_instances": 3},
    "hot-spare": {"n_instances": 2},
}

#: The methods exercised per (objective, homogeneous-platform) cell:
#: the homogeneous reliability cell runs the heuristic kernel and the
#: pareto-dp frontier kernel (the Section 8.1 plan's exact method).
OBJECTIVE_METHODS = {
    ("reliability", True): ("heuristic", "pareto-dp"),
    ("reliability", False): ("heur-l",),
    ("period", True): ("dp-period",),
    ("period", False): ("het-period-search",),
    ("latency", True): ("dp-latency",),
    ("latency", False): ("het-latency-search",),
    ("energy", True): ("energy-greedy",),
    ("energy", False): ("energy-greedy",),
}

#: Cells whose kernel serves every unit of a BOUNDS sweep (energy has
#: no kernel at all).
FULLY_BATCHED = {
    ("reliability", True),
    ("reliability", False),
    ("period", True),
    ("period", False),
    ("latency", True),
    ("latency", False),
}


#: The paired (Section 8.2) builtin scenarios, whose sweeps run on the
#: heterogeneous rows and on hom_counterpart().
PAIRED = sorted(name for name in SHRINK if get_scenario(name).paired)

#: Sweep points on both sides' scales for the shrunk paired scenarios
#: (heterogeneous times ~1-14, counterpart times ~30-200): feasible,
#: infeasible and partly feasible points, and points where
#: best-then-check and feasible-best disagree.
PAIRED_BOUNDS = [
    (math.inf, math.inf), (8.0, 9.0), (8.0, math.inf), (math.inf, 10.0),
    (20.0, 200.0), (60.0, 184.0), (100.0, 150.0),
]


def shrunk_spec(name):
    return get_scenario(name).spec.with_(**SHRINK[name])


def sweep_pair(tmp_path, spec, method, objective, bounds=BOUNDS,
               min_reliability=0.0, jobs=1):
    """The same sweep (of a spec or an ensemble) through the batched
    and the per-row path, each into its own cold cache."""
    sweeps, caches = [], []
    for batch in (True, False):
        cache = ResultCache(tmp_path / f"cache-{batch}")
        sweeps.append(run_sweep(
            spec, [method], bounds,
            cache=cache, objective=objective, batch=batch,
            min_reliability=min_reliability, jobs=jobs,
        ))
        caches.append(cache)
    return sweeps, caches


def assert_same_sweeps(batched, looped):
    """Every result array of two sweeps is bit-identical."""
    for name in ("solved", "failure", "objective_values", "period", "latency"):
        assert np.array_equal(getattr(batched, name), getattr(looped, name)), name


def cache_entries(cache):
    return dict(cache.scan())


def n_units(sweep):
    n_methods, _, n_instances = sweep.solved.shape
    return n_methods * n_instances


def arrays(results):
    """A UnitResults' per-(row, point) arrays, in record order."""
    return tuple(getattr(results, name) for name in UnitResults.ARRAYS)


def witness(res):
    """A per-row solve's witness period and latency (``inf`` when
    infeasible) — what the kernels' period/latency arrays hold."""
    if not res.feasible:
        return math.inf, math.inf
    return res.evaluation.worst_case_period, res.evaluation.worst_case_latency


def per_row(method, ensemble, bounds, objective, floor):
    """The harness's per-row solves, one unit per ensemble row."""
    out = UnitResults.empty(len(ensemble), len(bounds), objective)
    for r in range(len(ensemble)):
        base = Problem(*ensemble[r], objective=objective, min_reliability=floor)
        out.set_row(r, _solve_unit(method, base, bounds, objective)[0], 0)
    return out


class TestSweepEquivalenceMatrix:
    """run_sweep(batch=True) is bit-identical to the per-row path for
    every builtin scenario x objective, cache entries included."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("scenario", sorted(SHRINK))
    @pytest.mark.parametrize(
        "objective", ["reliability", "period", "latency", "energy"]
    )
    def test_batched_sweep_matches_per_row(self, tmp_path, scenario, objective, jobs):
        entry = get_scenario(scenario)
        for method_name in OBJECTIVE_METHODS[objective, entry.homogeneous]:
            (batched, looped), (bcache, lcache) = sweep_pair(
                tmp_path / method_name, shrunk_spec(scenario), get_method(method_name),
                objective, jobs=jobs,
            )
            assert_same_sweeps(batched, looped)
            # Both paths write entries under identical keys with identical
            # payloads — a sweep warmed by one path serves the other.
            assert cache_entries(bcache) == cache_entries(lcache) != {}
            assert looped.batch_units == 0
            if (objective, entry.homogeneous) in FULLY_BATCHED:
                assert batched.batch_units == n_units(batched)
            else:
                assert batched.batch_units == 0

    def test_batch_warmed_cache_serves_per_row_sweep(self, tmp_path):
        spec = shrunk_spec("section8-hom")
        cache = ResultCache(tmp_path / "shared")
        cold = run_sweep(spec, [get_method("heur-p")], BOUNDS, cache=cache)
        assert cold.batch_units == n_units(cold) > 0
        warm_cache = ResultCache(cache.root)
        warm = run_sweep(
            spec, [get_method("heur-p")], BOUNDS,
            cache=warm_cache, batch=False,
        )
        assert warm_cache.hits == n_units(cold) and warm_cache.puts == 0
        assert np.array_equal(cold.failure, warm.failure)

    def test_parallel_kernel_sweep_matches_serial_rows(self, tmp_path):
        spec = shrunk_spec("unreliable-links")
        serial = run_sweep(spec, [get_method("heur-l")], BOUNDS, batch=False)
        forked = run_sweep(spec, [get_method("heur-l")], BOUNDS, jobs=2)
        assert np.array_equal(serial.failure, forked.failure)
        assert np.array_equal(serial.objective_values, forked.objective_values)

    def test_parallel_kernel_less_units_run_in_workers(self):
        """A method without a kernel runs every unit per row in the
        pool's workers, each counted exactly once."""
        with obs.collect() as telemetry:
            sweep = run_sweep(
                shrunk_spec("section8-hom"), [get_method("energy-greedy")],
                BOUNDS, objective="energy", jobs=2,
            )
        units = n_units(sweep)
        assert sweep.batch_units == 0
        assert len(sweep.unit_events) == units
        assert {e["instance"] for e in sweep.unit_events} == set(range(units))
        assert {e["source"] for e in sweep.unit_events} == {"worker"}
        assert {
            key: count for key, count in telemetry.counters.items()
            if key.startswith("sweep.units.")
        } == {"sweep.units.worker[energy-greedy]": units}

    @pytest.mark.parametrize("batch", ["auto", "yes", 1, None])
    def test_batch_flag_validated(self, batch):
        with pytest.raises(ValueError, match="batch must be True or False"):
            run_sweep(
                shrunk_spec("section8-hom"), [get_method("heur-l")],
                BOUNDS, batch=batch,
            )


class TestKernelBitIdentity:
    """batch_heuristic_best against the per-row heuristic_best loop."""

    @pytest.mark.parametrize("which", ["heur-l", "heur-p", "both"])
    @pytest.mark.parametrize(
        "scenario",
        ["section8-hom", "unreliable-links", "high-heterogeneity", "hot-spare"],
    )
    def test_matches_per_row_loop(self, scenario, which):
        ensemble = generate_ensemble(shrunk_spec(scenario), seed=11)
        solved, failure, values, period, latency = arrays(batch_heuristic_best(
            ensemble, BOUNDS, which=which
        ))
        for i, (chain, platform) in enumerate(ensemble):
            for pt, (P, L) in enumerate(BOUNDS):
                res = heuristic_best(
                    chain, platform, max_period=P, max_latency=L,
                    which=which, selection="feasible-best",
                )
                assert bool(solved[i, pt]) == res.feasible
                assert float(failure[i, pt]) == res.failure_probability
                assert float(values[i, pt]) == res.objective_value("reliability")
                assert (period[i, pt], latency[i, pt]) == witness(res)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("side", ["het", "hom"])
    @pytest.mark.parametrize("scenario", PAIRED)
    @pytest.mark.parametrize("method_name", ["heur-l-paper", "heur-p-paper"])
    def test_paper_methods_match_per_row_sweep(
        self, tmp_path, method_name, scenario, side, jobs
    ):
        """The paper variants on both sides of a paired scenario: the
        kernel serves every unit, and its arrays and cache record bytes
        equal the per-row path's (run in a pool at jobs=2)."""
        ensemble = generate_ensemble(shrunk_spec(scenario), seed=11)
        if side == "hom":
            ensemble = ensemble.hom_counterpart()
        (batched, looped), (bcache, lcache) = sweep_pair(
            tmp_path, ensemble, get_method(method_name), "reliability",
            bounds=PAIRED_BOUNDS, jobs=jobs,
        )
        assert_same_sweeps(batched, looped)
        assert cache_entries(bcache) == cache_entries(lcache) != {}
        assert batched.batch_units == n_units(batched)
        assert looped.batch_units == 0
        assert batched.solved.any() and not batched.solved.all()

    def test_rows_subset(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=3)
        full = batch_heuristic_best(ensemble, BOUNDS)
        part = batch_heuristic_best(ensemble, BOUNDS, rows=[2, 0])
        for whole, sub in zip(arrays(full), arrays(part)):
            assert np.array_equal(sub[0], whole[2])
            assert np.array_equal(sub[1], whole[0])

    def test_unsupported_shapes_raise(self):
        het = generate_ensemble(shrunk_spec("high-heterogeneity"), seed=5)
        hom = generate_ensemble(shrunk_spec("section8-hom"), seed=5)
        # Heterogeneous rows and reliability floors are covered cells
        # now; only a mismatched objective remains unsupported here.
        solved = batch_heuristic_best(het, BOUNDS, min_reliability=0.5).solved
        assert solved.shape == (len(het), len(BOUNDS))
        with pytest.raises(ValueError, match="objective"):
            batch_heuristic_best(hom, BOUNDS, objective="period")
        with pytest.raises(ValueError, match="unknown heuristic"):
            batch_heuristic_best(hom, BOUNDS, which="heur-x")
        with pytest.raises(ValueError, match="unknown selection rule 'best'"):
            batch_heuristic_best(hom, BOUNDS, selection="best")
        with pytest.raises(ValueError, match="unknown allocation mode 'hom'"):
            batch_heuristic_best(hom, BOUNDS, allocation="hom")

    def test_unsupported_shape_messages(self):
        """Snapshot of each kernel's guard against a shape the sweep's
        validation rejects before any kernel runs: a ValueError with
        its message text."""
        het = generate_ensemble(shrunk_spec("high-heterogeneity"), seed=5)
        hom = generate_ensemble(shrunk_spec("section8-hom"), seed=5)
        cases = [
            (
                lambda: batch_heuristic_best(hom, BOUNDS, objective="period"),
                "batched heuristics cover objective 'reliability' only, "
                "got 'period'",
            ),
            (
                lambda: batch_minimize_period(het, PERIOD_BOUNDS),
                "the batched dp-period kernel requires fully homogeneous "
                "rows (the Section 5 DPs are only optimal there; Section 6 "
                "proves the heterogeneous problem NP-complete)",
            ),
            (
                lambda: batch_minimize_latency(het, BOUNDS),
                "the batched dp-latency kernel requires fully homogeneous "
                "rows (the Section 5 DPs are only optimal there; Section 6 "
                "proves the heterogeneous problem NP-complete)",
            ),
            (
                lambda: batch_minimize_latency(hom, BOUNDS, objective="period"),
                "the batched dp-latency kernel covers objective 'latency' "
                "only, got 'period'",
            ),
            (
                lambda: batch_pareto_dp(het, BOUNDS),
                "the batched pareto-dp kernel requires fully homogeneous "
                "rows (the Section 5 DPs are only optimal there; Section 6 "
                "proves the heterogeneous problem NP-complete)",
            ),
            (
                lambda: batch_pareto_dp(hom, BOUNDS, objective="latency"),
                "the batched pareto-dp kernel covers objective "
                "'reliability' only, got 'latency'",
            ),
            (
                lambda: get_method("het-period-search").solve_batch(
                    het, BOUNDS, objective="latency"
                ),
                "the batched period-search kernel covers objective "
                "'period' only, got 'latency'",
            ),
            (
                lambda: get_method("het-latency-search").solve_batch(
                    het, BOUNDS, objective="period"
                ),
                "the batched latency-search kernel covers objective "
                "'latency' only, got 'period'",
            ),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_scaling_stress_variants(self):
        # Tuple-axis specs expand to differently-shaped ensembles; the
        # kernel must hold on each variant independently.
        spec = get_scenario("scaling-stress").spec.with_(n_instances=2)
        for ensemble in generate_ensembles(spec, seed=7):
            _, failure, values, period, latency = arrays(batch_heuristic_best(
                ensemble, BOUNDS[:2], which="heur-p"
            ))
            for i, (chain, platform) in enumerate(ensemble):
                for pt, (P, L) in enumerate(BOUNDS[:2]):
                    res = heuristic_best(
                        chain, platform, max_period=P, max_latency=L,
                        which="heur-p", selection="feasible-best",
                    )
                    assert float(failure[i, pt]) == res.failure_probability
                    assert float(values[i, pt]) == res.objective_value(
                        "reliability"
                    )
                    assert (period[i, pt], latency[i, pt]) == witness(res)


class TestMethodCapability:
    def test_builtin_methods_declare_solve_batch(self):
        for name in (
            "heur-l", "heur-p", "heuristic", "heur-l-paper", "heur-p-paper",
            "dp-period", "dp-latency", "pareto-dp",
            "het-period-search", "het-latency-search",
        ):
            assert get_method(name).solve_batch is not None
        for name in ("anneal", "ilp", "brute-force", "energy-greedy"):
            assert get_method(name).solve_batch is None

    def test_fingerprint_covers_solve_batch(self):
        base = get_method("heur-l")
        stripped = Method(
            name=base.name, solve=base.solve,
            exact=base.exact, homogeneous_only=base.homogeneous_only,
        )
        assert base.fingerprint() != stripped.fingerprint()

    def test_solve_batch_closure_matches_kernel(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=2)
        via_method = get_method("heur-p").solve_batch(ensemble, BOUNDS)
        direct = batch_heuristic_best(ensemble, BOUNDS, which="heur-p")
        for a, b in zip(arrays(via_method), arrays(direct)):
            assert np.array_equal(a, b)
        assert via_method.infos == direct.infos


#: Every registered method with a kernel.
BATCHED_METHODS = sorted(
    name for name, method in METHODS.items() if method.solve_batch is not None
)

#: Sweep points no mapping meets.
INFEASIBLE_BOUNDS = [(1e-9, math.inf), (1e-6, math.inf)]


class TestUnitResultsContract:
    """Every kernel returns a UnitResults of the requested shape, filled
    by UnitResults.empty wherever a cell is infeasible."""

    @pytest.mark.parametrize("method_name", BATCHED_METHODS)
    @pytest.mark.parametrize("rows,bounds", [
        ([], PERIOD_BOUNDS),
        ([2, 0], PERIOD_BOUNDS),
        ([0, 1, 2], INFEASIBLE_BOUNDS),
    ], ids=["empty-rows", "row-subset", "all-infeasible"])
    def test_shapes_and_infeasible_fill(self, method_name, rows, bounds):
        method = get_method(method_name)
        objective = method.objectives[0]
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        out = method.solve_batch(ensemble, bounds, rows=rows, objective=objective)
        assert isinstance(out, UnitResults)
        shape = (len(rows), len(bounds))
        assert all(a.shape == shape for a in arrays(out))
        assert out.solved.dtype == bool
        assert len(out.infos) == len(rows)
        fill = UnitResults.empty(len(rows), len(bounds), objective)
        infeasible = ~out.solved
        for got, want in zip(arrays(out)[1:], arrays(fill)[1:]):
            assert np.array_equal(got[infeasible], want[infeasible])
        if bounds is INFEASIBLE_BOUNDS:
            assert not out.solved.any()
        elif rows:
            full = method.solve_batch(ensemble, bounds, objective=objective)
            for whole, sub in zip(arrays(full), arrays(out)):
                assert np.array_equal(sub, whole[rows])
            assert out.infos == [full.infos[r] for r in rows]

    def test_empty_fill_rule(self):
        for objective, value in [("reliability", 0.0), ("period", math.inf),
                                 ("latency", math.inf), ("energy", math.inf)]:
            empty = UnitResults.empty(2, 3, objective)
            assert not empty.solved.any() and empty.solved.shape == (2, 3)
            assert (empty.failure == 1.0).all()
            assert (empty.values == value).all()
            assert (empty.period == math.inf).all()
            assert (empty.latency == math.inf).all()
            assert empty.infos == [None, None]


#: (method, objective, bounds, scenario) per converse-objective kernel
#: cell; the search methods run on both platform kinds.
CONVERSE_CELLS = [
    ("dp-period", "period", PERIOD_BOUNDS, "section8-hom"),
    ("dp-period", "period", BOUNDS, "section8-hom"),
    ("dp-latency", "latency", BOUNDS, "section8-hom"),
    ("het-period-search", "period", BOUNDS, "section8-het"),
    ("het-period-search", "period", BOUNDS, "long-chain"),
    ("het-latency-search", "latency", BOUNDS, "high-heterogeneity"),
    ("het-latency-search", "latency", BOUNDS, "section8-hom"),
]


class TestConverseKernels:
    """The dp/search kernels against the per-row path itself —
    _unit_arrays is byte-for-byte what the harness runs per unit, so
    this pins arrays *and* the per-row info (probes/converged)."""

    @pytest.mark.parametrize("method_name,objective,bounds,scenario",
                             CONVERSE_CELLS)
    @pytest.mark.parametrize("floor", [0.0, 0.9])
    def test_kernel_rows_match_unit_arrays(
        self, method_name, objective, bounds, scenario, floor
    ):
        ensemble = generate_ensemble(shrunk_spec(scenario), seed=13)
        method = get_method(method_name)
        out = method.solve_batch(
            ensemble, bounds, objective=objective, min_reliability=floor
        )
        rows = per_row(method, ensemble, bounds, objective, floor)
        for kernel, looped in zip(arrays(out), arrays(rows)):
            assert kernel.dtype == looped.dtype
            assert np.array_equal(kernel, looped)
        assert out.infos == rows.infos

    def test_search_infos_count_probes(self):
        ensemble = generate_ensemble(shrunk_spec("section8-het"), seed=13)
        infos = batch_bisection_search(ensemble, BOUNDS, criterion="period").infos
        assert all(info is not None and info["probes"] >= len(BOUNDS)
                   for info in infos)

    def test_rows_subset(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        full = batch_minimize_period(ensemble, PERIOD_BOUNDS)
        part = batch_minimize_period(ensemble, PERIOD_BOUNDS, rows=[2, 0])
        for whole, sub in zip(arrays(full), arrays(part)):
            assert np.array_equal(sub[0], whole[2])
            assert np.array_equal(sub[1], whole[0])
        assert part.infos == [full.infos[2], full.infos[0]]


class TestParetoDPKernel:
    """The pareto-dp kernel (one lane-vectorized frontier DP over every
    row and sweep point) against the per-row path, at kernel and at
    sweep level."""

    @pytest.mark.parametrize("bounds", [PERIOD_AXIS, LATENCY_AXIS, BOUNDS],
                             ids=["period-axis", "latency-axis", "mixed"])
    def test_kernel_rows_match_unit_arrays(self, bounds):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        method = get_method("pareto-dp")
        out = method.solve_batch(ensemble, bounds)
        rows = per_row(method, ensemble, bounds, "reliability", 0.0)
        for kernel, looped in zip(arrays(out), arrays(rows)):
            assert np.array_equal(kernel, looped)
        assert out.infos == rows.infos == [None] * len(ensemble)
        # The grids exercise feasible and infeasible points alike.
        assert out.solved.any() and not out.solved.all()

    def test_rows_subset(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        full = batch_pareto_dp(ensemble, LATENCY_AXIS)
        part = batch_pareto_dp(ensemble, LATENCY_AXIS, rows=[2, 0])
        for whole, sub in zip(arrays(full), arrays(part)):
            assert np.array_equal(sub[0], whole[2])
            assert np.array_equal(sub[1], whole[0])

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("bounds", [PERIOD_AXIS, LATENCY_AXIS],
                             ids=["period-axis", "latency-axis"])
    def test_sweep_matches_per_row(self, tmp_path, jobs, bounds):
        spec = shrunk_spec("section8-hom")
        method = get_method("pareto-dp")
        sweeps, caches = [], []
        for batch in (True, False):
            cache = ResultCache(tmp_path / f"cache-{batch}")
            sweeps.append(run_sweep(spec, [method], bounds, cache=cache,
                                    batch=batch, jobs=jobs))
            caches.append(cache)
        batched, looped = sweeps
        assert_same_sweeps(batched, looped)
        # Same keys, same record bytes.
        assert cache_entries(caches[0]) == cache_entries(caches[1]) != {}
        assert batched.batch_units == n_units(batched)
        assert looped.batch_units == 0


class TestNaNBounds:
    """A NaN bound fails at the sweep boundary with Problem's message,
    whichever path would have solved it."""

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("method_name,objective,bound", [
        ("heur-l", "reliability", (math.nan, math.inf)),
        ("dp-latency", "latency", (100.0, math.nan)),
        ("pareto-dp", "reliability", (math.nan, 900.0)),
    ])
    def test_nan_bound_raises(self, batch, method_name, objective, bound):
        name = "max_period" if math.isnan(bound[0]) else "max_latency"
        with pytest.raises(ValueError,
                           match=rf"{name} must be > 0 \(inf = unbounded\), got nan"):
            run_sweep(shrunk_spec("section8-hom"), [get_method(method_name)],
                      [bound], objective=objective, batch=batch)

    @pytest.mark.parametrize("kernel", [
        batch_minimize_latency, batch_pareto_dp, batch_bisection_search,
    ])
    def test_kernels_reject_nan(self, kernel):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        with pytest.raises(ValueError, match="max_period must be > 0"):
            kernel(ensemble, [(math.nan, math.inf)])


class TestFloorSweeps:
    """Reliability floors through the batched sweep: batched == per-row
    bit-identity at every floor, infeasible rows included."""

    #: The top floor is chosen so that some (not necessarily all)
    #: units go infeasible on the shrunk scenarios.
    FLOORS = [0.0, 0.9, 1.0 - 1e-12]

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("method_name,objective,bounds,scenario",
                             CONVERSE_CELLS)
    def test_floored_sweep_matches_per_row(
        self, tmp_path, method_name, objective, bounds, scenario, floor
    ):
        method = get_method(method_name)
        (batched, looped), (bcache, lcache) = sweep_pair(
            tmp_path, shrunk_spec(scenario), method, objective,
            bounds=bounds, min_reliability=floor,
        )
        assert_same_sweeps(batched, looped)
        assert cache_entries(bcache) == cache_entries(lcache) != {}
        assert batched.batch_units == n_units(batched)
        assert looped.batch_units == 0
        if floor == self.FLOORS[-1] and method_name.startswith("dp-"):
            # The hom scenarios cannot clear this floor everywhere; the
            # het ones can (replication pushes failure below 1e-12), so
            # only the DP cells pin the infeasible-row case here.
            assert not batched.solved.all()

    def test_kernel_floor_matches_per_row_heuristics(self):
        # run_sweep rejects floored *reliability* sweeps (the floor is
        # a constraint for the converse objectives), so the floored
        # heuristic cell is pinned at kernel level.
        from repro.util.logrel import from_reliability

        ensemble = generate_ensemble(shrunk_spec("unreliable-links"), seed=13)
        for floor in (0.5, 1.0 - 1e-12):
            solved, failure, values, period, latency = arrays(batch_heuristic_best(
                ensemble, BOUNDS, min_reliability=floor
            ))
            for i, (chain, platform) in enumerate(ensemble):
                for pt, (P, L) in enumerate(BOUNDS):
                    res = heuristic_best(
                        chain, platform, max_period=P, max_latency=L,
                        which="both", selection="feasible-best",
                        min_log_reliability=from_reliability(floor),
                    )
                    assert bool(solved[i, pt]) == res.feasible
                    assert float(failure[i, pt]) == res.failure_probability
                    assert float(values[i, pt]) == res.objective_value(
                        "reliability"
                    )
                    assert (period[i, pt], latency[i, pt]) == witness(res)


class TestDpPeriodServesEveryUnit:
    """The dp-period kernel serves finite and infinite latency bounds
    alike: every unit of a sweep, bit-identical to the per-row path."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("bounds", [BOUNDS, PERIOD_BOUNDS],
                             ids=["mixed-latency", "unbounded-latency"])
    def test_kernel_serves_every_unit(self, tmp_path, bounds, jobs):
        with obs.collect() as telemetry:
            (batched, looped), (bcache, lcache) = sweep_pair(
                tmp_path, shrunk_spec("section8-hom"), get_method("dp-period"),
                "period", bounds=bounds, min_reliability=0.9, jobs=jobs,
            )
        assert_same_sweeps(batched, looped)
        assert cache_entries(bcache) == cache_entries(lcache) != {}
        units = n_units(batched)
        assert batched.batch_units == units
        assert {e["source"] for e in batched.unit_events} == {"batch"}
        assert [e.get("probes") for e in batched.unit_events] == [
            e.get("probes") for e in looped.unit_events
        ]
        assert telemetry.counters["sweep.units.batch[dp-period]"] == units
        assert batched.solved.any()


class TestBuiltinPlansStayInProcess:
    """Kernels cover every builtin scenario's default reliability plan,
    so a parallel sweep of it never starts a process pool."""

    @pytest.mark.parametrize("scenario", sorted(SHRINK))
    def test_default_plan_needs_no_pool(self, scenario, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the sweep started a process pool")

        # The harness imports the pool class when it starts one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        spec = shrunk_spec(scenario)
        methods = Planner().plan(spec).methods()
        ensembles = generate_ensembles(spec, seed=0)
        sides = [ensembles]
        if spec.paired:
            sides.append([e.hom_counterpart() for e in ensembles])
        for side in sides:
            sweep = run_sweep(side, methods, BOUNDS, jobs=2)
            assert sweep.batch_units == n_units(sweep) > 0
            assert {e["source"] for e in sweep.unit_events} == {"batch"}
