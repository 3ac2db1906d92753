"""Tests for the declarative scenario subsystem (repro.scenarios)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import Platform, TaskChain
from repro.experiments import get_method, run_crosscheck, run_sweep
from repro.experiments.cache import ResultCache
from repro.experiments.instances import heterogeneous_suite, homogeneous_suite
from repro.io import dumps, loads
from repro.scenarios import (
    SCENARIOS,
    Bimodal,
    Constant,
    Correlated,
    HotSpare,
    LogNormal,
    LogUniform,
    Scenario,
    ScenarioSpec,
    Uniform,
    UnknownScenarioError,
    distribution_from_value,
    generate_ensemble,
    generate_ensembles,
    materialize_instances,
    get_scenario,
    load_spec,
    register_scenario,
    scenario_hash,
    spec_from_dict,
    spec_is_homogeneous,
)

BUILTINS = (
    "section8-hom",
    "section8-het",
    "scaling-stress",
    "long-chain",
    "high-heterogeneity",
    "unreliable-links",
    "hot-spare",
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDistributions:
    def test_constant_draws_no_randomness(self):
        a, b = rng(1), rng(1)
        values = Constant(4.0).draw(a, 5)
        assert np.all(values == 4.0)
        # The stream was not consumed: both generators still agree.
        assert a.uniform() == b.uniform()
        assert not Constant(1.0).stochastic

    def test_uniform_integral_matches_core_draw(self):
        from repro.core.generate import draw_uniform

        values = Uniform(1.0, 100.0, integral=True).draw(rng(3), 50)
        expected = draw_uniform(rng(3), 1.0, 100.0, 50, True)
        assert np.array_equal(values, expected)
        assert np.all(values == np.floor(values))
        assert np.all((values >= 1) & (values <= 100))

    def test_loguniform_range(self):
        values = LogUniform(1e-9, 1e-6).draw(rng(), 500)
        assert np.all((values >= 1e-9) & (values <= 1e-6))
        # Spread across decades, not clustered at one end.
        assert np.ptp(np.log10(values)) > 1.5

    def test_lognormal_clip(self):
        values = LogNormal(mean=3.0, sigma=1.5, low=1.0, high=50.0).draw(rng(), 400)
        assert np.all((values >= 1.0) & (values <= 50.0))
        assert np.any(values == 50.0)  # the tail actually hits the clip

    def test_bimodal_modes(self):
        dist = Bimodal(1.0, 10.0, 80.0, 100.0, weight=0.3, integral=True)
        values = dist.draw(rng(), 600)
        low = values <= 10.0
        high = values >= 80.0
        assert np.all(low | high)
        assert 0.15 < high.mean() < 0.45  # ~weight

    def test_correlated_sign_follows_rho(self):
        work = Uniform(1.0, 100.0).draw(rng(1), 400)
        pos = Correlated(1.0, 10.0, rho=0.9).draw_given(rng(2), work)
        neg = Correlated(1.0, 10.0, rho=-0.9).draw_given(rng(2), work)
        assert np.corrcoef(work, pos)[0, 1] > 0.5
        assert np.corrcoef(work, neg)[0, 1] < -0.5
        assert np.all((pos >= 1.0) & (pos <= 10.0))

    def test_correlated_requires_reference(self):
        with pytest.raises(ValueError, match="reference"):
            Correlated(1.0, 10.0).draw(rng(), 5)

    def test_hot_spare_pattern(self):
        values = HotSpare(base=1e-5, spare=1e-9, n_spares=2).draw(rng(), 6)
        assert np.all(values[:4] == 1e-5) and np.all(values[4:] == 1e-9)
        with pytest.raises(ValueError, match="exceeds"):
            HotSpare(base=1e-5, spare=1e-9, n_spares=9).draw(rng(), 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="low <= high"):
            Uniform(5.0, 1.0)
        with pytest.raises(ValueError, match="low > 0"):
            LogUniform(0.0, 1.0)
        with pytest.raises(ValueError, match="weight"):
            Bimodal(0, 1, 2, 3, weight=1.5)
        with pytest.raises(ValueError, match="rho"):
            Correlated(0, 1, rho=2.0)

    def test_dict_codec(self):
        dist = Bimodal(1.0, 10.0, 80.0, 100.0, weight=0.3, integral=True)
        assert distribution_from_value(dist.to_dict()) == dist
        assert distribution_from_value(7) == Constant(7.0)
        with pytest.raises(ValueError, match="unknown distribution kind"):
            distribution_from_value({"kind": "zipf"})
        with pytest.raises(ValueError, match="unknown parameters"):
            distribution_from_value({"kind": "uniform", "low": 1, "high": 2, "mu": 3})


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_instances"):
            ScenarioSpec(name="x", n_instances=0)
        with pytest.raises(ValueError, match="n_tasks"):
            ScenarioSpec(name="x", n_tasks=0)
        with pytest.raises(ValueError, match="rng_mode"):
            ScenarioSpec(name="x", rng_mode="quantum")
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="")
        with pytest.raises(ValueError, match="only valid for the output"):
            ScenarioSpec(name="x", work=Correlated(1.0, 10.0))
        with pytest.raises(ValueError, match="hom_counterpart_speed"):
            ScenarioSpec(name="x", hom_counterpart_speed=-1.0)

    def test_axes_and_variants(self):
        spec = ScenarioSpec(name="sweep", n_tasks=(5, 10), p=(3, 4, 6))
        assert spec.axes == {"n_tasks": (5, 10), "p": (3, 4, 6)}
        variants = spec.variants()
        assert len(variants) == 6
        assert all(not v.axes for v in variants)
        assert variants[0].name == "sweep[n_tasks=5][p=3]"
        # No axes -> identity.
        flat = ScenarioSpec(name="flat")
        assert flat.variants() == [flat]

    def test_with_revalidates(self):
        spec = ScenarioSpec(name="x")
        assert spec.with_(n_tasks=7).n_tasks == 7
        with pytest.raises(ValueError, match="K"):
            spec.with_(K=0)

    def test_io_roundtrip(self):
        spec = get_scenario("section8-het").spec
        decoded = loads(dumps(spec))
        assert decoded == spec
        payload = json.loads(dumps(spec))
        assert payload["type"] == "ScenarioSpec"

    def test_spec_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields"):
            spec_from_dict({"name": "x", "n_taskss": 5})
        with pytest.raises(ValueError, match="invalid scenario spec"):
            spec_from_dict({})

    def test_load_spec_json(self, tmp_path):
        spec = get_scenario("unreliable-links").spec.with_(n_instances=3)
        path = tmp_path / "spec.json"
        path.write_text(dumps(spec))
        assert load_spec(path) == spec

    def test_load_spec_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "toml-scn"\n'
            "n_instances = 2\n"
            "n_tasks = 8\n"
            "[work]\n"
            'kind = "uniform"\n'
            "low = 1.0\n"
            "high = 50.0\n"
            "integral = true\n"
        )
        spec = load_spec(path)
        assert spec.name == "toml-scn"
        assert spec.work == Uniform(1.0, 50.0, integral=True)
        assert spec.p == 10  # defaults fill in

    def test_scenario_hash_ignores_cosmetics(self):
        spec = get_scenario("section8-hom").spec
        assert scenario_hash(spec) == scenario_hash(
            spec.with_(name="other", description="zzz", n_instances=7)
        )
        assert scenario_hash(spec) != scenario_hash(spec.with_(K=2))


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(SCENARIOS)
        assert len(SCENARIOS) >= 6

    def test_capability_metadata(self):
        assert get_scenario("section8-hom").homogeneous
        assert not get_scenario("section8-het").homogeneous
        assert get_scenario("section8-het").paired
        assert not get_scenario("hot-spare").homogeneous  # het failure rates

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError, match="unknown scenario"):
            get_scenario("warehouse-42")
        # Both historical exception families keep working.
        with pytest.raises(KeyError):
            get_scenario("warehouse-42")
        with pytest.raises(ValueError):
            get_scenario("warehouse-42")

    def test_duplicate_rejected_replace_allowed(self):
        spec = ScenarioSpec(name="dup-test", n_instances=1)
        try:
            register_scenario(spec)
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
            replaced = register_scenario(spec.with_(K=2), replace=True)
            assert replaced.spec.K == 2
        finally:
            SCENARIOS.pop("dup-test", None)

    def test_homogeneity_derived_from_spec(self):
        for scenario in SCENARIOS.values():
            assert scenario.homogeneous == spec_is_homogeneous(scenario.spec)
        spec = ScenarioSpec(name="het-test", speed=Uniform(1.0, 9.0))
        try:
            assert not register_scenario(spec).homogeneous
        finally:
            SCENARIOS.pop("het-test", None)

    def test_spec_is_homogeneous(self):
        assert spec_is_homogeneous(get_scenario("section8-hom").spec)
        assert not spec_is_homogeneous(get_scenario("section8-het").spec)


class TestSection8BitIdentity:
    """Acceptance: the scenario re-expressions equal the legacy suites."""

    @pytest.mark.parametrize("seed", [0, 13])
    def test_homogeneous_suite(self, seed):
        legacy = homogeneous_suite(n_instances=6, seed=seed)
        scenario = materialize_instances("section8-hom", n_instances=6, seed=seed)
        assert len(legacy) == len(scenario)
        for (lc, lp), (sc, sp) in zip(legacy, scenario):
            assert np.array_equal(lc.work, sc.work)
            assert np.array_equal(lc.output, sc.output)
            assert lp == sp

    @pytest.mark.parametrize("seed", [0, 21])
    def test_heterogeneous_suite(self, seed):
        legacy = heterogeneous_suite(n_instances=5, seed=seed)
        scenario = materialize_instances("section8-het", n_instances=5, seed=seed)
        for lpair, spair in zip(legacy, scenario):
            assert lpair.chain == spair.chain
            assert lpair.het_platform == spair.het_platform
            assert lpair.hom_platform == spair.hom_platform

    def test_prefix_stability(self):
        small = materialize_instances("section8-hom", n_instances=3, seed=4)
        big = materialize_instances("section8-hom", n_instances=6, seed=4)
        assert all(cs == cb for (cs, _), (cb, _) in zip(small, big))


class TestGeneration:
    def test_reproducible(self):
        a = materialize_instances("high-heterogeneity", n_instances=4, seed=9)
        b = materialize_instances("high-heterogeneity", n_instances=4, seed=9)
        assert all(ca == cb and pa == pb for (ca, pa), (cb, pb) in zip(a, b))

    def test_variant_expansion_counts(self):
        ensemble = materialize_instances("scaling-stress", n_instances=2, seed=0)
        spec = get_scenario("scaling-stress").spec
        assert len(ensemble) == 2 * len(spec.variants())
        sizes = {(c.n, p.p) for c, p in ensemble}
        assert sizes == {(n, p) for n in (20, 40, 80) for p in (16, 32)}

    def test_batched_respects_distributions(self):
        ensemble = materialize_instances("long-chain", n_instances=5, seed=2)
        for chain, platform in ensemble:
            assert chain.n == 120
            body = chain.work
            assert np.all((body <= 20.0) | (body >= 80.0))  # bimodal
            assert np.all(chain.output[:-1] <= 10.0)
            assert chain.output[-1] == 0.0
            assert platform.homogeneous

    def test_hot_spare_platforms(self):
        for _, platform in materialize_instances("hot-spare", n_instances=3, seed=0):
            rates = platform.failure_rates
            assert np.all(rates[:-3] == 1e-5) and np.all(rates[-3:] == 1e-9)
            assert not platform.homogeneous

    def test_unreliable_links_correlation(self):
        chains = [c for c, _ in materialize_instances("unreliable-links", n_instances=20, seed=1)]
        work = np.concatenate([c.work[:-1] for c in chains])
        output = np.concatenate([c.output[:-1] for c in chains])
        assert np.corrcoef(work, output)[0, 1] > 0.4

    @pytest.mark.parametrize(
        "regime",
        [
            LogUniform(1e-9, 1e-6),
            # Deterministic but non-constant: there is no single rate the
            # homogeneous counterpart could honestly carry.
            HotSpare(base=1e-5, spare=1e-9, n_spares=3),
        ],
        ids=["stochastic", "hot-spare"],
    )
    def test_paired_constant_failure_required(self, regime):
        spec = ScenarioSpec(
            name="bad-pair",
            proc_failure=regime,
            hom_counterpart_speed=5.0,
            n_instances=1,
        )
        with pytest.raises(ValueError, match="constant proc_failure"):
            materialize_instances(spec)

    def test_resolve_rejects_junk(self):
        from repro.scenarios import resolve_scenario

        with pytest.raises(TypeError, match="scenario must be"):
            resolve_scenario(42)


class TestSweepIntegration:
    def tiny_spec(self):
        return get_scenario("section8-hom").spec.with_(
            name="tiny-hom", n_instances=3, n_tasks=6, p=4
        )

    def test_run_sweep_accepts_scenario_name(self):
        sweep = run_sweep(
            "section8-hom",
            [get_method("heur-l")],
            [(200.0, 750.0)],
            n_instances=3,
        )
        assert sweep.solved.shape == (1, 1, 3)

    def test_run_sweep_accepts_spec_and_caches_by_spec_hash(self, tmp_path):
        """Acceptance: a second scenario sweep is served entirely from cache."""
        spec = self.tiny_spec()
        methods = [get_method("heur-l"), get_method("heur-p")]
        bounds = [(150.0, 750.0), (400.0, 750.0)]

        cold = ResultCache(tmp_path)
        first = run_sweep(spec, methods, bounds, cache=cold, seed=5)
        assert cold.misses == 6 and cold.puts == 6 and cold.hits == 0

        warm = ResultCache(tmp_path)
        second = run_sweep(spec, methods, bounds, cache=warm, seed=5)
        assert warm.misses == 0 and warm.puts == 0 and warm.hits == 6
        assert np.array_equal(first.solved, second.solved)
        assert np.array_equal(first.failure, second.failure)

    def test_cache_key_includes_spec_hash(self, tmp_path):
        spec = self.tiny_spec()
        cache = ResultCache(tmp_path)
        digest = generate_ensemble(spec, seed=5).row_hash(0)
        bounds = [(150.0, 750.0)]
        plain = cache.unit_key_for("heur-l", digest, bounds)
        scoped = cache.unit_key_for("heur-l", digest, bounds, scenario=scenario_hash(spec))
        other = cache.unit_key_for(
            "heur-l", digest, bounds,
            scenario=scenario_hash(spec.with_(link_failure_rate=1e-4)),
        )
        assert len({plain, scoped, other}) == 3

    def test_extended_ensemble_reuses_prefix_units(self, tmp_path):
        """n_instances is excluded from the spec hash, so growing the
        ensemble only computes the new instances."""
        spec = self.tiny_spec()
        methods = [get_method("heur-l")]
        bounds = [(200.0, 750.0)]
        cache = ResultCache(tmp_path)
        run_sweep(spec, methods, bounds, cache=cache, seed=5)
        grown = ResultCache(tmp_path)
        run_sweep(spec.with_(n_instances=5), methods, bounds, cache=grown, seed=5)
        assert grown.hits == 3 and grown.misses == 2

    def test_run_sweep_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            run_sweep("no-such-workload", [get_method("heur-l")], [(1.0, 1.0)])

    def test_run_sweep_paired_scenario_uses_het_side(self):
        sweep = run_sweep(
            "section8-het",
            [get_method("heur-l-paper")],
            [(100.0, 200.0)],
            n_instances=2,
        )
        assert sweep.solved.shape == (1, 1, 2)


class TestCrosscheckIntegration:
    def test_scenario_population(self):
        report = run_crosscheck(
            n_instances=2, seed=3, n_tasks=4, p=3, simulate=False,
            scenario="unreliable-links",
        )
        assert report.instances == 2
        assert report.solver_disagreements == 0
        assert report.rbd_disagreements == 0

    def test_heterogeneous_scenario_rejected(self):
        with pytest.raises(ValueError, match="homogeneous scenario"):
            run_crosscheck(n_instances=1, scenario="high-heterogeneity")

    def test_sweep_axis_scenario_keeps_population_size(self):
        """A spec with a surviving sweep axis (bandwidth is not
        overridden by the cross-check's sizing) must still check
        exactly n_instances instances, sampled across the variants."""
        spec = ScenarioSpec(
            name="axis-check", bandwidth=(0.5, 2.0), n_instances=1
        )
        report = run_crosscheck(
            n_instances=2, seed=1, n_tasks=4, p=3, simulate=False, scenario=spec
        )
        assert report.instances == 2
        assert report.solver_disagreements == 0
        assert report.rbd_disagreements == 0

    def test_materializes_only_the_chosen_rows(self, monkeypatch):
        """The sampled rows of a sweep-axis spec are the only ones built:
        every other row's chain and platform stay unmaterialized."""
        import repro.scenarios

        generated = []

        def recording(spec, seed=0):
            ensembles = generate_ensembles(spec, seed=seed)
            generated.extend(ensembles)
            return ensembles

        monkeypatch.setattr(repro.scenarios, "generate_ensembles", recording)
        spec = ScenarioSpec(
            name="axis-check", bandwidth=(0.5, 1.0, 2.0), n_instances=1
        )
        run_crosscheck(
            n_instances=2, seed=1, n_tasks=4, p=3, simulate=False, scenario=spec
        )
        # Three variants of two rows each; the even sample takes flat
        # rows 0 and 5: row 0 of the first variant, row 1 of the last.
        assert [len(e) for e in generated] == [2, 2, 2]
        assert [[c is not None for c in e._chains] for e in generated] == [
            [True, False], [False, False], [False, True],
        ]
        assert [[p is not None for p in e._platforms] for e in generated] == [
            [True], [False], [True],
        ]


class TestScenarioObject:
    def test_generate_shortcut_and_describe(self):
        scenario = get_scenario("section8-hom")
        assert isinstance(scenario, Scenario)
        ensemble = scenario.generate(n_instances=2, seed=1)
        assert len(ensemble) == 2
        chain, platform = ensemble[0]
        assert isinstance(chain, TaskChain) and isinstance(platform, Platform)
        d = scenario.describe()
        assert d["name"] == "section8-hom" and d["homogeneous"] is True
        assert d["variants"] == 1 and "section8" in d["tags"]
        assert dataclasses.is_dataclass(scenario)


class TestGenerateInstancesRemoved:
    """The deprecated generate_instances shim is gone after its
    one-release window; materialize_instances is the object-level API."""

    def test_shim_is_gone(self):
        import repro.scenarios
        import repro.scenarios.generate as generate_mod

        assert not hasattr(repro.scenarios, "generate_instances")
        assert not hasattr(generate_mod, "generate_instances")
        assert "generate_instances" not in repro.scenarios.__all__

    def test_materialize_instances_matches_ensemble_rows(self):
        ensemble = generate_ensemble("section8-hom", n_instances=3, seed=8)
        current = materialize_instances("section8-hom", n_instances=3, seed=8)
        assert len(current) == 3
        for i, (chain, platform) in enumerate(current):
            echain, eplatform = ensemble[i]
            assert chain == echain and platform == eplatform

    def test_scenario_generate_is_quiet(self):
        # The registry convenience routes through the ensemble path
        # without the migration nag.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pairs = get_scenario("section8-het").generate(n_instances=2, seed=1)
        assert len(pairs) == 2 and pairs[0].hom_platform == pairs[1].hom_platform
