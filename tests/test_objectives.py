"""The tri-criteria facade: objective semantics on Problem, the
objective-native methods and their agreement with the objective-aware
brute force, planner/facade gating, harness/cache round-trips, and the
cached grid probes."""

import json
import math

import numpy as np
import pytest

from repro.algorithms import (
    brute_force_best,
    minimize_latency,
    minimize_period,
)
from repro.core import Platform, TaskChain
from repro.experiments import (
    METHODS,
    get_method,
    register_method,
    run_crosscheck,
    run_sweep,
)
from repro.experiments.cache import ResultCache
from repro.experiments.figures import run_experiment
from repro.extensions.energy import mapping_energy, minimize_energy
from repro.extensions.period_search import (
    DEFAULT_MAX_PROBES,
    DEFAULT_REL_TOL,
    minimize_period_search,
)
from repro.io import dumps, loads
from repro.obs import telemetry as obs
from repro.scenarios import generate_ensembles, get_scenario
from repro.solve import (
    OBJECTIVES,
    Planner,
    Problem,
    auto_method_name,
    derive_bounds_grid,
    solve,
)
from repro.solve.grid import DEFAULT_MARGIN
from repro.util.logrel import from_reliability


@pytest.fixture
def chain():
    return TaskChain([6.0, 6.0, 4.0], [1.0, 2.0, 0.0])


@pytest.fixture
def hom():
    return Platform.homogeneous_platform(
        4, failure_rate=1e-3, link_failure_rate=1e-4, max_replication=2
    )


@pytest.fixture
def het():
    return Platform(
        speeds=[2.0, 1.0, 3.0],
        failure_rates=[1e-4, 2e-4, 5e-5],
        bandwidth=2.0,
        link_failure_rate=1e-4,
        max_replication=2,
    )


class TestProblemObjectives:
    def test_objectives_tuple(self):
        assert OBJECTIVES == ("reliability", "period", "latency", "energy")

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_io_roundtrip_every_objective(self, chain, hom, objective):
        floor = 0.9 if objective != "reliability" else 0.0
        problem = Problem(
            chain, hom, max_period=40.0, objective=objective,
            min_reliability=floor,
        )
        back = loads(dumps(problem))
        assert back == problem
        assert back.objective == objective
        assert back.min_reliability == floor

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_content_hash_stable_across_constructions(self, chain, hom, objective):
        floor = 0.5 if objective != "reliability" else 0.0
        a = Problem(chain, hom, objective=objective, min_reliability=floor)
        b = Problem(chain, hom, objective=objective, min_reliability=floor)
        assert a.content_hash() == b.content_hash()
        assert loads(dumps(a)).content_hash() == a.content_hash()

    def test_hash_sensitive_to_objective_and_floor(self, chain, hom):
        base = Problem(chain, hom)
        hashes = {base.content_hash()}
        for objective in ("period", "latency", "energy"):
            hashes.add(base.replace(objective=objective).content_hash())
        hashes.add(
            base.replace(objective="period", min_reliability=0.5).content_hash()
        )
        assert len(hashes) == 5  # all distinct

    def test_legacy_payload_defaults_to_no_floor(self, chain, hom):
        from repro.io import from_dict

        payload = Problem(chain, hom).to_dict()
        del payload["min_reliability"]  # pre-1.2 payloads carry no floor
        back = from_dict(payload)
        assert back.min_reliability == 0.0 and back.objective == "reliability"

    def test_floor_rejected_for_reliability_objective(self, chain, hom):
        with pytest.raises(ValueError, match="min_reliability"):
            Problem(chain, hom, min_reliability=0.5)

    def test_floor_range_validated(self, chain, hom):
        for bad in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                Problem(chain, hom, objective="period", min_reliability=bad)

    def test_unknown_objective_rejected(self, chain, hom):
        with pytest.raises(ValueError, match="unknown objective"):
            Problem(chain, hom, objective="throughput")

    def test_min_log_reliability(self, chain, hom):
        assert Problem(chain, hom).min_log_reliability == -math.inf
        p = Problem(chain, hom, objective="period", min_reliability=0.5)
        assert p.min_log_reliability == pytest.approx(math.log(0.5))

    def test_replace_and_repr(self, chain, hom):
        p = Problem(chain, hom).replace(objective="energy", min_reliability=0.9)
        assert p.objective == "energy"
        assert "r>=0.9" in repr(p) and "'energy'" in repr(p)

    def test_with_bounds_preserves_objective(self, chain, hom):
        p = Problem(chain, hom, objective="latency", min_reliability=0.25)
        q = p.with_bounds(max_period=30.0)
        assert q.objective == "latency" and q.min_reliability == 0.25


class TestFacadeRouting:
    def test_auto_per_objective(self, chain, hom, het):
        assert auto_method_name(Problem(chain, hom, objective="period")) == "dp-period"
        assert auto_method_name(Problem(chain, hom, objective="latency")) == "dp-latency"
        assert auto_method_name(Problem(chain, hom, objective="energy")) == "energy-greedy"
        assert auto_method_name(Problem(chain, het, objective="energy")) == "energy-greedy"

    def test_auto_het_period_resolves_to_search(self, chain, het):
        # Used to raise UnknownMethodError: period minimization on
        # heterogeneous platforms had no registered method until the
        # het-period-search binary search closed the gap.
        assert (
            auto_method_name(Problem(chain, het, objective="period"))
            == "het-period-search"
        )

    def test_objective_mismatch_is_value_error(self, chain, hom):
        problem = Problem(chain, hom, objective="period")
        with pytest.raises(ValueError, match="does not support objective"):
            solve(problem, method="pareto-dp")

    @pytest.mark.parametrize(
        "objective,direct",
        [
            ("period", lambda c, p, ell: minimize_period(
                c, p, min_log_reliability=ell, max_latency=40.0)),
            ("latency", lambda c, p, ell: minimize_latency(
                c, p, min_log_reliability=ell)),
            ("energy", lambda c, p, ell: minimize_energy(
                c, p, max_latency=40.0, min_log_reliability=ell)),
        ],
    )
    def test_facade_matches_direct_calls(self, chain, hom, objective, direct):
        floor = 0.9
        kwargs = {"max_latency": 40.0} if objective != "latency" else {}
        problem = Problem(
            chain, hom, objective=objective, min_reliability=floor, **kwargs
        )
        via_facade = solve(problem)
        direct_result = direct(chain, hom, from_reliability(floor))
        assert via_facade.feasible == direct_result.feasible
        assert via_facade.objective_value(objective) == pytest.approx(
            direct_result.objective_value(objective)
        )
        assert via_facade.mapping == direct_result.mapping

    def test_registry_rejects_unknown_objectives(self):
        with pytest.raises(ValueError, match="unknown objectives"):
            register_method("bad-objective-method", objectives=("speedup",))(
                lambda problem: None
            )
        assert "bad-objective-method" not in METHODS


class TestConverseAgainstBruteForce:
    """dp-period / dp-latency are exact: they must match the
    objective-aware exhaustive oracle on tiny instances."""

    def instances(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            work = rng.uniform(1.0, 8.0, size=n)
            output = np.append(rng.uniform(0.5, 3.0, size=n - 1), 0.0)
            chain = TaskChain(work, output)
            platform = Platform.homogeneous_platform(
                int(rng.integers(2, 5)),
                failure_rate=10.0 ** -rng.uniform(2, 4),
                link_failure_rate=10.0 ** -rng.uniform(2, 4),
                max_replication=int(rng.integers(1, 3)),
            )
            yield chain, platform, rng

    def test_dp_period_agrees(self):
        for chain, platform, rng in self.instances():
            unbounded = solve(Problem(chain, platform))
            floor_ell = unbounded.log_reliability * float(rng.uniform(1.0, 3.0))
            L = float(unbounded.evaluation.worst_case_latency * rng.uniform(1.0, 1.5))
            problem = Problem(
                chain, platform, max_latency=L,
                objective="period", min_reliability=math.exp(floor_ell),
            )
            dp = solve(problem, method="dp-period")
            oracle = solve(problem, method="brute-force")
            assert dp.feasible == oracle.feasible
            if oracle.feasible:
                assert dp.objective_value("period") == pytest.approx(
                    oracle.objective_value("period")
                )

    def test_dp_latency_agrees(self):
        for chain, platform, rng in self.instances():
            unbounded = solve(Problem(chain, platform))
            floor_ell = unbounded.log_reliability * float(rng.uniform(1.0, 3.0))
            P = float(unbounded.evaluation.worst_case_period * rng.uniform(1.0, 1.5))
            problem = Problem(
                chain, platform, max_period=P,
                objective="latency", min_reliability=math.exp(floor_ell),
            )
            dp = solve(problem, method="dp-latency")
            oracle = solve(problem, method="brute-force")
            assert dp.feasible == oracle.feasible
            if oracle.feasible:
                assert dp.objective_value("latency") == pytest.approx(
                    oracle.objective_value("latency")
                )

    def test_infeasible_floor_reported(self, chain, hom):
        problem = Problem(
            chain, hom, objective="period",
            min_reliability=1.0 - 1e-12,
        )
        result = solve(problem, method="dp-period")
        oracle = solve(problem, method="brute-force")
        assert not result.feasible and not oracle.feasible

    def test_energy_greedy_never_beats_oracle(self, chain, hom):
        problem = Problem(
            chain, hom, max_period=7.0,
            objective="energy", min_reliability=0.9,
        )
        greedy = solve(problem, method="energy-greedy")
        oracle = solve(problem, method="brute-force")
        assert greedy.feasible and oracle.feasible
        assert greedy.objective_value("energy") >= oracle.objective_value("energy") - 1e-9
        ev = greedy.evaluation
        assert ev.meets(
            max_period=7.0, min_log_reliability=problem.min_log_reliability
        )
        # Thinning pays off: the greedy's energy is no worse than its
        # unthinned reliability-maximizing seed.
        seed = solve(Problem(chain, hom, max_period=7.0), method="heuristic")
        assert greedy.objective_value("energy") <= mapping_energy(seed.mapping) + 1e-9

    def test_crosscheck_objectives_clean(self):
        report = run_crosscheck(n_instances=4, simulate=False, seed=11)
        assert report.objective_disagreements == 0
        assert report.clean

    def test_brute_force_rejects_unknown_objective(self, chain, hom):
        with pytest.raises(ValueError, match="unknown objective"):
            brute_force_best(chain, hom, objective="throughput")


class TestPlannerObjectiveGating:
    def test_objective_skip_reasons_recorded(self):
        plan = Planner().plan("section8-hom", objective="period")
        assert plan.objective == "period"
        # Expensive-first order: the heuristic search next to the
        # exact Section 5.2 converse, both period-native.
        assert plan.selected == ("het-period-search", "dp-period")
        reasons = {s.method: s.reason for s in plan.skipped}
        assert "objective 'period' unsupported" in reasons["pareto-dp"]
        assert "objective 'period' unsupported" in reasons["heur-l"]

    def test_objective_gate_is_hard_even_for_explicit_lists(self):
        plan = Planner().plan(
            "section8-hom", methods=["ilp", "dp-latency"], objective="latency"
        )
        assert plan.selected == ("dp-latency",)
        assert any(
            s.method == "ilp" and "objective" in s.reason for s in plan.skipped
        )

    def test_energy_selected_on_heterogeneous_scenarios(self):
        plan = Planner().plan("high-heterogeneity", objective="energy")
        assert plan.selected == ("energy-greedy",)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            Planner().plan("section8-hom", objective="speedup")

    def test_describe_carries_objective(self):
        record = Planner().plan("section8-hom", objective="energy").describe()
        assert record["objective"] == "energy"


class TestHarnessObjectives:
    def test_run_sweep_objective_param(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            instances="section8-hom",
            methods=[get_method("dp-period")],
            bounds=[(math.inf, 850.0), (math.inf, 950.0)],
            n_instances=3,
            objective="period",
            min_reliability=0.3,
            cache=cache,
        )
        sweep = run_sweep(**kwargs)
        counts = sweep.counts("dp-period")
        assert counts.shape == (2,)
        assert counts[0] <= counts[1]  # looser latency bound solves more
        # Cache round-trip: identical sweep is served entirely from cache.
        again = run_sweep(**kwargs)
        assert cache.misses == cache.puts  # every cold unit stored once
        assert cache.hits == cache.puts  # ...and replayed once
        np.testing.assert_array_equal(sweep.solved, again.solved)
        np.testing.assert_array_equal(sweep.failure, again.failure)

    def test_objective_mismatched_method_raises_up_front(self):
        with pytest.raises(ValueError, match="does not support objective"):
            run_sweep(
                "section8-hom",
                [get_method("heur-l")],
                [(250.0, 750.0)],
                n_instances=2,
                objective="period",
            )

    def test_run_experiment_is_planner_driven(self):
        exp = run_experiment("hom-period", n_instances=2, exact_method="pareto-dp")
        assert exp.plan is not None
        assert list(exp.plan.selected) == ["pareto-dp", "heur-l", "heur-p"]
        assert exp.plan.spec_hash == exp.scenario_key
        assert exp.sweeps["hom"].method_names == list(exp.plan.selected)

    def test_run_experiment_het_plan(self):
        exp = run_experiment("het-period", n_instances=2)
        assert list(exp.plan.selected) == ["heur-l-paper", "heur-p-paper"]


class TestGridProbeCache:
    """Grid probes are ordinary sweep units: one unbounded ``heuristic``
    unit per instance, cached and healed exactly like any other."""

    def test_warm_grid_derivation_is_solve_free(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = derive_bounds_grid(
            "section8-hom", n_points=4, n_instances=4, cache=cache
        )
        assert cache.puts == 4  # one probe unit per instance
        assert cache.hits == 0
        with obs.collect() as telemetry:
            warm = derive_bounds_grid(
                "section8-hom", n_points=4, n_instances=4, cache=cache
            )
        assert cache.hits == 4
        assert cache.puts == 4  # nothing recomputed
        assert telemetry.counters["grid.probe.cached[heuristic]"] == 4
        assert "grid.probe.solved[heuristic]" not in telemetry.counters
        assert warm == cold

    def test_probe_is_the_unbounded_heuristic_unit(self, tmp_path):
        ensembles = generate_ensembles(
            get_scenario("section8-het").spec.with_(n_instances=3), seed=0
        )
        cache = ResultCache(tmp_path / "cache")
        grid = derive_bounds_grid(ensembles, cache=cache)
        entries = dict(cache.scan())
        assert len(entries) == 3
        cache.reset()
        sweep = run_sweep(
            ensembles, [get_method("heuristic")], [(math.inf, math.inf)], cache=cache
        )
        # The explicit sweep is served entirely by the probe entries.
        assert cache.hits == 3 and cache.misses == 0 and cache.puts == 0
        assert dict(cache.scan()) == entries
        assert grid.max_period == float(sweep.period.max()) * DEFAULT_MARGIN
        assert grid.max_latency == float(sweep.latency.max()) * DEFAULT_MARGIN

    def test_field_stripped_probe_record_recovers(self, tmp_path):
        """A probe record missing the fields the grid reads is a corrupt
        entry, not a hit: it is recomputed and rewritten."""
        cache = ResultCache(tmp_path / "cache")
        cold = derive_bounds_grid(
            "section8-hom", n_points=4, n_instances=2, cache=cache
        )
        entries = dict(cache.scan())
        for key, payload in entries.items():
            record = json.loads(payload)
            del record["period"], record["latency"]
            cache.path(key).write_text(json.dumps(record))
        cache.reset()
        again = derive_bounds_grid(
            "section8-hom", n_points=4, n_instances=2, cache=cache
        )
        assert again == cold
        assert cache.stats()["corrupt"] == 2
        assert cache.hits == 0 and cache.puts == 2
        assert dict(cache.scan()) == entries


class TestObjectiveValue:
    def test_values_match_evaluation(self, chain, hom):
        result = solve(Problem(chain, hom, max_period=8.0))
        ev = result.evaluation
        assert result.objective_value("reliability") == pytest.approx(ev.reliability)
        assert result.objective_value("period") == ev.worst_case_period
        assert result.objective_value("latency") == ev.worst_case_latency
        assert result.objective_value("energy") == pytest.approx(
            mapping_energy(result.mapping)
        )
        with pytest.raises(ValueError, match="unknown objective"):
            result.objective_value("speedup")

    def test_infeasible_values(self, chain, hom):
        result = solve(
            Problem(chain, hom, max_latency=1.0, objective="latency"),
            method="dp-latency",
        )
        assert not result.feasible
        assert result.objective_value("latency") == math.inf
        assert result.objective_value("reliability") == 0.0


class TestCliObjectives:
    def test_solve_objective_flag(self, tmp_path, capsys, chain, hom):
        from repro.cli import main

        chain_file = tmp_path / "chain.json"
        platform_file = tmp_path / "platform.json"
        chain_file.write_text(dumps(chain))
        platform_file.write_text(dumps(hom))
        code = main([
            "solve", str(chain_file), str(platform_file),
            "--objective", "period", "--min-reliability", "0.9",
            "--max-latency", "40",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "objective (period)" in out
        assert "dp-period" in out

    def test_solve_rejects_bad_floor(self, tmp_path, capsys, chain, hom):
        from repro.cli import main

        chain_file = tmp_path / "chain.json"
        platform_file = tmp_path / "platform.json"
        chain_file.write_text(dumps(chain))
        platform_file.write_text(dumps(hom))
        with pytest.raises(SystemExit, match="min_reliability"):
            main([
                "solve", str(chain_file), str(platform_file),
                "--objective", "energy", "--min-reliability", "1.5",
            ])

    def test_plan_show_objective(self, capsys):
        from repro.cli import main

        assert main(["plan", "show", "section8-hom", "--objective", "latency"]) == 0
        out = capsys.readouterr().out
        assert "dp-latency" in out and "objective 'latency' unsupported" in out

    def test_scenario_run_objective_manifest(self, tmp_path, capsys):
        import json

        from repro.cli import main

        manifest = tmp_path / "manifest.json"
        code = main([
            "scenario", "run", "section8-hom", "--n-instances", "2",
            "--objective", "period", "--min-reliability", "0.3",
            "--max-latency", "900", "--manifest", str(manifest),
        ])
        assert code == 0
        payload = json.loads(manifest.read_text())
        assert payload["objective"] == "period"
        assert payload["plan"]["selected"] == ["het-period-search", "dp-period"]
        assert payload["plan"]["objective"] == "period"


class TestHetPeriodSearch:
    """The heterogeneous converse-objective gap-closer (ISSUE 5)."""

    @pytest.fixture
    def het_instance(self):
        chain = TaskChain([6.0, 4.0, 5.0], [1.0, 2.0, 0.0])
        platform = Platform(
            speeds=[2.0, 1.0, 1.5], failure_rates=[1e-4, 1e-5, 1e-4],
            link_failure_rate=1e-5, max_replication=2,
        )
        return chain, platform

    def test_matches_oracle_on_tiny_instance(self, het_instance):
        chain, platform = het_instance
        problem = Problem(chain, platform, objective="period", min_reliability=0.5)
        search = solve(problem)  # auto -> het-period-search
        oracle = solve(problem, method="brute-force")
        assert search.method == "het-period-search" and search.feasible
        assert search.objective_value("period") >= (
            oracle.objective_value("period") - 1e-9
        )
        ev = search.evaluation
        assert ev.reliability >= 0.5

    def test_honors_latency_bound_and_period_cap(self, het_instance):
        chain, platform = het_instance
        bounded = solve(Problem(
            chain, platform, objective="period", max_latency=20.0,
        ))
        assert bounded.feasible
        assert bounded.evaluation.worst_case_latency <= 20.0
        # A period cap below the analytic floor is infeasible.
        floor = float(np.max(chain.work)) / float(np.max(platform.speeds))
        capped = solve(Problem(
            chain, platform, objective="period", max_period=floor / 2,
        ))
        assert not capped.feasible

    def test_planner_selects_it_for_het_scenarios(self):
        plan = Planner().plan("high-heterogeneity", objective="period")
        assert plan.selected == ("het-period-search",)
        reasons = {s.method: s.reason for s in plan.skipped}
        assert "homogeneous" in reasons["dp-period"]

    def test_period_sweep_on_het_scenario(self):
        sweep = run_sweep(
            "high-heterogeneity",
            [get_method("het-period-search")],
            [(np.inf, np.inf)],
            n_instances=3,
            objective="period",
        )
        assert int(sweep.counts("het-period-search")[0]) == 3
        q = sweep.objective_quantiles("het-period-search")
        assert np.all(np.isfinite(q)) and np.all(q > 0)

    def test_exhausted_probe_budget_reports_not_converged(self):
        # Regression: with max_probes exhausted before the bracket met
        # rel_tol, the search returned a witness whose details were
        # indistinguishable from a converged run.
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        platform = Platform(
            speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3,
            max_replication=2,
        )
        starved = minimize_period_search(chain, platform, max_probes=1)
        assert starved.feasible
        assert starved.details["probes"] == 1
        assert starved.details["converged"] is False
        lo, hi = starved.details["bracket"]
        assert hi - lo > DEFAULT_REL_TOL * max(hi, 1.0)

    def test_default_budget_converges(self):
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        platform = Platform(
            speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3,
            max_replication=2,
        )
        result = minimize_period_search(chain, platform)
        assert result.details["converged"] is True
        assert result.details["probes"] < DEFAULT_MAX_PROBES
        lo, hi = result.details["bracket"]
        assert hi - lo <= DEFAULT_REL_TOL * max(hi, 1.0)
