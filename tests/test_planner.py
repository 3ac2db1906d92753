"""The scenario-aware planner: capability gating, skip reasons,
ordering, error parity with the registry, and plan records."""

from dataclasses import replace

import pytest

from repro.experiments import METHODS, UnknownMethodError, get_method, register_method
from repro.scenarios import (
    UnknownScenarioError,
    get_scenario,
    scenario_hash,
)
from repro.solve import Plan, Planner


@pytest.fixture
def scratch_registry():
    before = dict(METHODS)
    yield METHODS
    METHODS.clear()
    METHODS.update(before)


def skip_reasons(plan: Plan) -> dict:
    return {s.method: s.reason for s in plan.skipped}


class TestCapabilityGating:
    def test_hom_only_methods_excluded_for_het_scenarios(self):
        """The headline gate: Section 5 exact solvers never run on
        heterogeneous workloads."""
        plan = Planner().plan("high-heterogeneity")
        for name in ("ilp", "pareto-dp"):
            assert name not in plan.selected
            assert "requires homogeneous platforms" in skip_reasons(plan)[name]
        # And the gate is hard: explicitly requesting them still skips.
        explicit = Planner().plan("high-heterogeneity", methods=["pareto-dp", "heur-l"])
        assert explicit.selected == ("heur-l",)
        assert "requires homogeneous platforms" in skip_reasons(explicit)["pareto-dp"]

    def test_hom_scenario_keeps_cheapest_exact(self):
        plan = Planner().plan("section8-hom")
        assert plan.selected == ("pareto-dp", "heur-l", "heur-p")
        assert "redundant exact solver" in skip_reasons(plan)["ilp"]

    def test_size_threshold_drops_exact_methods(self):
        """scaling-stress (80 tasks x 32 procs at the top of its axes)
        is past the exact threshold — the ROADMAP's motivating case."""
        plan = Planner().plan("scaling-stress")
        assert plan.selected == ("heur-l", "heur-p")
        assert "exceeds the exact-method threshold" in skip_reasons(plan)["pareto-dp"]

    def test_explicit_batched_exact_method_passes_size_threshold(self):
        """An exact method with a lane kernel runs past the threshold
        when it is named; the default plan still drops it."""
        for scenario in ("scaling-stress", "long-chain"):
            explicit = Planner().plan(scenario, methods=["pareto-dp", "heur-l"])
            assert explicit.selected == ("pareto-dp", "heur-l")
            converse = Planner().plan(scenario, methods=["dp-latency"], objective="latency")
            assert converse.selected == ("dp-latency",)
            default = Planner().plan(scenario)
            assert "exceeds the exact-method threshold" in skip_reasons(default)["pareto-dp"]

    def test_explicit_batched_exact_method_keeps_larger_threshold(self):
        """Past the measured kernel size the explicit request is skipped."""
        base = get_scenario("long-chain").spec
        for size in ({"n_tasks": 121}, {"p": 33}):
            plan = Planner().plan(replace(base, **size), methods=["pareto-dp", "heur-l"])
            assert plan.selected == ("heur-l",)
            assert "threshold (120 x 32)" in skip_reasons(plan)["pareto-dp"]

    def test_explicit_unbatched_exact_methods_keep_size_threshold(self):
        """brute-force and ilp have no kernel: an explicit request past
        the threshold is still skipped, with the threshold reason."""
        explicit = Planner().plan("scaling-stress", methods=["brute-force", "ilp", "heur-l"])
        assert explicit.selected == ("heur-l",)
        reasons = skip_reasons(explicit)
        for name in ("brute-force", "ilp"):
            assert "exceeds the exact-method threshold" in reasons[name]

    def test_brute_force_gated_on_its_own_search_space(self):
        """The planner skips brute-force where brute_force_best always
        refuses, with the solver's own message, and keeps it where the
        search space fits the budget."""
        from repro.algorithms.brute_force import brute_force_best
        from repro.core import Platform, random_chain

        plan = Planner().plan("section8-hom", methods=["brute-force", "heur-l"])
        assert plan.selected == ("heur-l",)
        reason = skip_reasons(plan)["brute-force"]
        assert reason.startswith("search space ~9.67e+08 exceeds budget 2000000")
        platform = Platform.homogeneous_platform(10, failure_rate=1e-8, max_replication=3)
        with pytest.raises(ValueError) as refused:
            brute_force_best(random_chain(15, rng=0), platform)
        assert str(refused.value) == reason
        base = get_scenario("section8-hom").spec
        for spec in (replace(base, n_tasks=5, p=4),
                     replace(get_scenario("section8-het").spec, n_tasks=4, p=3)):
            assert "brute-force" in Planner().plan(spec, methods=["brute-force"]).selected
        # The largest variant decides.
        swept = replace(base, n_tasks=(5, 15))
        assert "search space" in skip_reasons(
            Planner().plan(swept, methods=["brute-force"]))["brute-force"]

    def test_paired_tag_gating(self):
        hom = Planner().plan("section8-hom")
        het_paired = Planner().plan("section8-het")
        assert "heur-l-paper" not in hom.selected
        assert "heur-l-paper" in het_paired.selected and "heur-p-paper" in het_paired.selected

    def test_anneal_is_manual_opt_in(self):
        default = Planner().plan("section8-hom")
        assert "anneal" not in default.selected
        assert "manual-only" in skip_reasons(default)["anneal"]
        assert "--methods" in skip_reasons(default)["anneal"]
        # Requesting it is the one way in.
        opted = Planner().plan("section8-hom", methods=["anneal"])
        assert opted.selected == ("anneal",)

    def test_manual_methods_need_explicit_request(self):
        auto = Planner().plan("section8-hom")
        assert "heuristic" not in auto.selected
        assert "manual-only" in skip_reasons(auto)["heuristic"]
        explicit = Planner().plan("section8-hom", methods=["heuristic"])
        assert explicit.selected == ("heuristic",)


class TestOrderingAndRecords:
    def test_expensive_first_order(self, scratch_registry):
        register_method("pricey", cost_hint=50.0)(lambda problem: None)
        plan = Planner().plan("section8-hom", methods=["heur-l", "pricey", "pareto-dp"])
        assert plan.selected == ("pricey", "pareto-dp", "heur-l")

    def test_plan_methods_resolve_against_registry(self):
        plan = Planner().plan("section8-hom")
        methods = plan.methods()
        assert [m.name for m in methods] == list(plan.selected)
        assert methods[0] is get_method(plan.selected[0])

    def test_spec_hash_ties_plan_to_workload(self):
        plan = Planner().plan("section8-hom")
        assert plan.spec_hash == scenario_hash(get_scenario("section8-hom").spec)

    def test_describe_is_json_ready(self):
        import json

        record = Planner().plan("section8-het").describe()
        assert json.loads(json.dumps(record)) == record
        assert record["scenario"] == "section8-het"
        assert set(record) == {
            "scenario", "spec_hash", "objective", "selected", "batched",
            "skipped",
        }
        assert record["objective"] == "reliability"
        assert all(set(s) == {"method", "reason"} for s in record["skipped"])
        # Every batched-capable selected method is marked, nothing else.
        assert record["batched"] == [
            name for name in record["selected"]
            if get_method(name).solve_batch is not None
        ]

    def test_summary_mentions_every_method(self):
        text = Planner().plan("section8-hom").summary()
        for name in METHODS:
            assert name in text


class TestErrors:
    def test_unknown_method_matches_registry_message(self):
        with pytest.raises(UnknownMethodError) as via_registry:
            get_method("no-such-method")
        with pytest.raises(UnknownMethodError) as via_planner:
            Planner().plan("section8-hom", methods=["no-such-method"])
        assert str(via_planner.value) == str(via_registry.value)

    def test_unknown_scenario_propagates(self):
        with pytest.raises(UnknownScenarioError, match="no-such-workload"):
            Planner().plan("no-such-workload")

    def test_bare_spec_accepted(self):
        spec = get_scenario("section8-hom").spec.with_(name="anon-copy")
        plan = Planner().plan(spec)
        assert plan.scenario == "anon-copy"
        # Same generative content, same hash, same selection.
        assert plan.spec_hash == Planner().plan("section8-hom").spec_hash
        assert plan.selected == Planner().plan("section8-hom").selected
