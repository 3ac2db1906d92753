"""The columnar ensemble core: struct-of-arrays storage, lazy rows,
round-trips, content identity, and the sweep bit-identity contract."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    Ensemble,
    Platform,
    TaskChain,
    ensembles_from_instances,
    instance_digest,
)
from repro.experiments import (
    ResultCache,
    SweepResult,
    get_method,
    heterogeneous_suite,
    homogeneous_suite,
    run_sweep,
)
from repro.experiments.instances import HetInstancePair
from repro.io import dumps, loads
from repro.solve import Problem
from repro.scenarios import generate_ensemble, generate_ensembles, get_scenario


@pytest.fixture(scope="module")
def hom_ensemble():
    return generate_ensemble("section8-hom", n_instances=5, seed=3)


@pytest.fixture(scope="module")
def het_ensemble():
    return generate_ensemble("section8-het", n_instances=4, seed=3)


class TestConstruction:
    def test_dimensions_and_columns(self, hom_ensemble):
        e = hom_ensemble
        assert (e.n_instances, e.n_tasks, e.p) == (5, 15, 10)
        assert len(e) == 5
        assert e.work.shape == e.output.shape == (5, 15)
        assert e.speeds.shape == e.failure_rates.shape == (5, 10)
        assert not e.work.flags.writeable

    def test_shared_platform_broadcasts(self, hom_ensemble):
        e = hom_ensemble
        assert e.platform_shared  # constant speeds/rates -> one stored row
        assert e.platform(0) is e.platform(4)
        assert np.all(e.speeds == 1.0)

    def test_validation(self):
        ok = dict(work=[[1.0, 2.0]], output=[[1.0, 0.0]], speeds=[[1.0]],
                  failure_rates=[[0.0]])
        Ensemble(**ok)
        with pytest.raises(ValueError, match="work amounts must be > 0"):
            Ensemble(**{**ok, "work": [[0.0, 2.0]]})
        with pytest.raises(ValueError, match="output sizes must be >= 0"):
            Ensemble(**{**ok, "output": [[-1.0, 0.0]]})
        with pytest.raises(ValueError, match="speeds must be > 0"):
            Ensemble(**{**ok, "speeds": [[-1.0]]})
        with pytest.raises(ValueError, match="same shape"):
            Ensemble(**{**ok, "output": [[1.0, 0.0, 3.0]]})
        with pytest.raises(ValueError, match="1 or 1 rows"):
            Ensemble(**{**ok, "speeds": [[1.0], [2.0]], "failure_rates": [[0.0], [0.0]]})
        with pytest.raises(ValueError, match="max_replication"):
            Ensemble(**ok, max_replication=0)
        with pytest.raises(ValueError, match="finite"):
            Ensemble(**{**ok, "work": [[np.inf, 2.0]]})

    def test_paired_needs_one_rate(self):
        with pytest.raises(ValueError, match="common processor failure rate"):
            Ensemble(
                work=[[1.0, 2.0]], output=[[1.0, 0.0]],
                speeds=[[1.0, 2.0]], failure_rates=[[1e-8, 1e-5]],
                hom_counterpart_speed=5.0,
            )

    def test_homogeneous_rows_vectorized(self):
        e = Ensemble(
            work=[[1.0], [2.0]], output=[[0.0], [0.0]],
            speeds=[[1.0, 1.0], [1.0, 2.0]],
            failure_rates=[[1e-8, 1e-8], [1e-8, 1e-8]],
        )
        assert list(e.homogeneous_rows()) == [True, False]
        assert not e.all_homogeneous


class TestRowIndexing:
    """A row is an index: ``ensemble[i]`` is the row's ``(chain,
    platform)`` pair, built from the ensemble's own cached objects."""

    def test_tuple_unpacking(self, hom_ensemble):
        chain, platform = hom_ensemble[2]
        assert isinstance(chain, TaskChain) and isinstance(platform, Platform)
        assert len(hom_ensemble[2]) == 2

    def test_pair_is_the_cached_objects(self, hom_ensemble):
        assert hom_ensemble[1][0] is hom_ensemble.chain(1)  # one object per row
        assert hom_ensemble[1][1] is hom_ensemble.platform(1)
        assert hom_ensemble[1][0] is hom_ensemble[1][0]

    def test_negative_and_out_of_range(self, hom_ensemble):
        assert hom_ensemble[-1][0] is hom_ensemble.chain(4)
        with pytest.raises(IndexError):
            hom_ensemble[5]
        with pytest.raises(IndexError):
            hom_ensemble[-6]
        with pytest.raises(TypeError):
            hom_ensemble["0"]

    def test_raw_columns_match_materialized(self, hom_ensemble):
        chain, platform = hom_ensemble[3]
        assert np.array_equal(hom_ensemble.work[3], chain.work)
        assert np.array_equal(hom_ensemble.speeds[3], platform.speeds)
        assert hom_ensemble.bandwidth == platform.bandwidth

    def test_problem_from_row(self, hom_ensemble):
        problem = Problem(
            *hom_ensemble[0], max_period=250.0, objective="period", min_reliability=0.5
        )
        assert problem.chain is hom_ensemble.chain(0)
        assert problem.max_period == 250.0
        assert problem.objective == "period" and problem.min_reliability == 0.5

    def test_iteration_order(self, hom_ensemble):
        assert [chain for chain, _ in hom_ensemble] == [
            hom_ensemble.chain(i) for i in range(5)
        ]


class TestMaterializeRoundTrips:
    def test_matches_pre_refactor_hom_suite(self):
        """Pinned: ensemble rows == the legacy Section 8.1 suite, bit
        for bit (the pre-refactor reference implementation)."""
        legacy = homogeneous_suite(n_instances=6, seed=13)
        ensemble = generate_ensemble("section8-hom", n_instances=6, seed=13)
        for (lc, lp), (sc, sp) in zip(legacy, ensemble.materialize()):
            assert np.array_equal(lc.work, sc.work)
            assert np.array_equal(lc.output, sc.output)
            assert lp == sp

    def test_matches_pre_refactor_het_suite(self):
        legacy = heterogeneous_suite(n_instances=5, seed=21)
        ensemble = generate_ensemble("section8-het", n_instances=5, seed=21)
        pairs = ensemble.materialize()
        assert all(isinstance(p, HetInstancePair) for p in pairs)
        for lpair, spair in zip(legacy, pairs):
            assert lpair.chain == spair.chain
            assert lpair.het_platform == spair.het_platform
            assert lpair.hom_platform == spair.hom_platform

    def test_from_instances_round_trip(self, hom_ensemble):
        rebuilt = Ensemble.from_instances(hom_ensemble.materialize())
        assert rebuilt == hom_ensemble
        assert rebuilt.platform_shared  # identical rows collapse again
        assert rebuilt.row_hash(0) == hom_ensemble.row_hash(0)

    def test_from_instances_paired_round_trip(self, het_ensemble):
        rebuilt = Ensemble.from_instances(het_ensemble.materialize())
        assert rebuilt == het_ensemble
        assert rebuilt.paired and rebuilt.hom_counterpart_speed == 5.0

    def test_hom_counterpart(self, het_ensemble):
        hom = het_ensemble.hom_counterpart()
        assert not hom.paired and hom.platform_shared
        assert hom.platform(0) == het_ensemble.hom_platform
        assert np.array_equal(hom.work, het_ensemble.work)
        with pytest.raises(ValueError, match="not a paired ensemble"):
            hom.hom_counterpart()

    def test_io_round_trip(self, het_ensemble):
        again = loads(dumps(het_ensemble))
        assert again == het_ensemble
        assert again.content_hash() == het_ensemble.content_hash()
        assert again.row_hash(1) == het_ensemble.row_hash(1)

    def test_mixed_profiles_rejected(self, hom_ensemble):
        other = generate_ensemble(
            get_scenario("section8-hom").spec.with_(n_tasks=6, p=4, n_instances=1)
        )
        mixed = hom_ensemble.materialize() + other.materialize()
        with pytest.raises(ValueError, match="ensembles_from_instances"):
            Ensemble.from_instances(mixed)
        groups = ensembles_from_instances(mixed)
        assert [len(g) for g in groups] == [5, 1]
        assert groups[0] == hom_ensemble

    def test_variant_ensembles(self):
        ensembles = generate_ensembles("scaling-stress", n_instances=2, seed=0)
        spec = get_scenario("scaling-stress").spec
        assert len(ensembles) == len(spec.variants())
        sizes = {(e.n_tasks, e.p) for e in ensembles}
        assert sizes == {(n, p) for n in (20, 40, 80) for p in (16, 32)}


class TestContentIdentity:
    def test_row_hash_matches_materialized_digest(self, het_ensemble):
        chain, platform = het_ensemble[2]
        assert het_ensemble.row_hash(2) == instance_digest(
            chain.work, chain.output, platform.speeds, platform.failure_rates,
            platform.bandwidth, platform.link_failure_rate, platform.max_replication,
        )

    def test_row_hash_sensitivity(self):
        base = dict(work=[[1.0, 2.0]], output=[[1.0, 0.0]], speeds=[[1.0]],
                    failure_rates=[[0.0]])
        e = Ensemble(**base)
        variants = [
            Ensemble(**{**base, "work": [[1.0, 3.0]]}),
            Ensemble(**{**base, "speeds": [[2.0]]}),
            Ensemble(**base, bandwidth=2.0),
            Ensemble(**base, max_replication=2),
        ]
        hashes = {v.row_hash(0) for v in variants}
        assert e.row_hash(0) not in hashes and len(hashes) == 4

    def test_row_hash_stable_across_processes(self, hom_ensemble):
        """Row digests key the on-disk cache, so they must not depend
        on per-process hash salting."""
        here = hom_ensemble.row_hash(0)
        script = (
            "from repro.scenarios import generate_ensemble\n"
            "e = generate_ensemble('section8-hom', n_instances=5, seed=3)\n"
            "print(e.row_hash(0))\n"
        )
        import repro

        env = dict(os.environ)
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        there = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert here == there

    def test_content_hash_cached_and_stable(self, hom_ensemble):
        assert hom_ensemble.content_hash() == hom_ensemble.content_hash()
        again = generate_ensemble("section8-hom", n_instances=5, seed=3)
        assert again.content_hash() == hom_ensemble.content_hash()
        assert hash(again) == hash(hom_ensemble)

    def test_derived_values_stay_out_of_identity_and_pickles(self, het_ensemble):
        """A derived value (the heuristic kernels' shared tables) is built
        once per key, and is not part of equality, the hashes or a
        pickle: a copy starts without it."""
        import copy
        import pickle

        digest = het_ensemble.content_hash()
        built = []
        value = het_ensemble.derived("k", lambda: built.append(1) or np.arange(3))
        assert het_ensemble.derived("k", lambda: built.append(1)) is value
        assert built == [1]
        fresh = generate_ensemble("section8-het", n_instances=4, seed=3)
        assert fresh == het_ensemble and fresh.content_hash() == digest
        for twin in (pickle.loads(pickle.dumps(het_ensemble)), copy.copy(het_ensemble)):
            assert twin == het_ensemble and twin.content_hash() == digest
            assert twin.derived("k", lambda: "rebuilt") == "rebuilt"
            assert twin.row_hash(1) == het_ensemble.row_hash(1)
        assert het_ensemble.derived("k", lambda: None) is value


class TestModelHashCaching:
    """Platform/TaskChain digests are computed once per object."""

    def test_platform_hash_cached(self):
        platform = Platform(speeds=[1.0, 2.0], failure_rates=[1e-8, 1e-7])
        assert platform._hash is None
        first = hash(platform)
        assert platform._hash == first
        assert hash(platform) == first

    def test_chain_hash_cached(self):
        chain = TaskChain(work=[1.0, 2.0], output=[1.0, 0.0])
        assert chain._hash is None
        first = hash(chain)
        assert chain._hash == first
        assert hash(chain) == first

    def test_equal_objects_hash_equal(self):
        a = Platform(speeds=[1.0, 2.0], failure_rates=[1e-8, 1e-7])
        b = Platform(speeds=[1.0, 2.0], failure_rates=[1e-8, 1e-7])
        assert a == b and hash(a) == hash(b)


class TestSweepBitIdentity:
    """Acceptance: run_sweep over an Ensemble is bit-identical — same
    cache keys, same per-point results — to the materialized path."""

    BOUNDS = [(150.0, 750.0), (400.0, 750.0)]

    @pytest.mark.parametrize("scenario", ["section8-hom", "section8-het"])
    def test_same_results_and_cache_keys(self, scenario, tmp_path):
        ensemble = generate_ensemble(scenario, n_instances=4, seed=9)
        methods = [get_method("heur-l"), get_method("heur-p")]
        n_units = len(methods) * len(ensemble)

        cold = ResultCache(tmp_path)
        columnar = run_sweep(ensemble, methods, self.BOUNDS, cache=cold)
        assert cold.stats() == {
            "hits": 0, "misses": n_units, "puts": n_units, "corrupt": 0,
            "hit_rate": 0.0,
        }

        warm = ResultCache(tmp_path)
        materialized = run_sweep(
            ensemble.materialize(), methods, self.BOUNDS, cache=warm
        )
        # Zero misses: the materialized twin derived the very same keys.
        assert warm.stats() == {
            "hits": n_units, "misses": 0, "puts": 0, "corrupt": 0,
            "hit_rate": 1.0,
        }
        assert np.array_equal(columnar.solved, materialized.solved)
        assert np.array_equal(columnar.failure, materialized.failure)
        assert np.array_equal(
            columnar.objective_values, materialized.objective_values
        )

    def test_parallel_shards_match_serial(self):
        """Per-row units of an ensemble sweep run one per pool task."""
        ensemble = generate_ensemble("section8-hom", n_instances=6, seed=2)
        methods = [get_method("heur-l"), get_method("heur-p")]
        serial = run_sweep(ensemble, methods, self.BOUNDS, jobs=1)
        pooled = run_sweep(ensemble, methods, self.BOUNDS, jobs=3, batch=False)
        assert {e["source"] for e in pooled.unit_events} == {"worker"}
        for name in ("solved", "failure", "objective_values", "period", "latency"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name)), name

    def test_warm_sweep_materializes_nothing(self, tmp_path):
        """The columnar payoff: a fully cached sweep never builds a
        TaskChain or Platform."""
        ensemble = generate_ensemble("section8-hom", n_instances=3, seed=4)
        methods = [get_method("heur-l")]
        run_sweep(ensemble, methods, self.BOUNDS, cache=ResultCache(tmp_path))

        fresh = generate_ensemble("section8-hom", n_instances=3, seed=4)
        run_sweep(fresh, methods, self.BOUNDS, cache=ResultCache(tmp_path))
        assert fresh._chains == [None] * 3
        assert fresh._platforms == [None]

    def test_cold_kernel_sweep_materializes_nothing(self):
        """Kernel-served units read the columns: a cold sweep whose every
        unit a kernel serves builds no TaskChain or Platform."""
        ensemble = generate_ensemble("section8-hom", n_instances=4, seed=5)
        sweep = run_sweep(
            ensemble, [get_method("heur-l"), get_method("heur-p")], self.BOUNDS
        )
        assert sweep.batch_units == 2 * len(ensemble)
        assert ensemble._chains == [None] * 4
        assert ensemble._platforms == [None]

    def test_per_row_sweep_materializes_only_solved_rows(self, tmp_path):
        """A per-row unit builds its own row's objects and no other's:
        with the first two rows cached, only the third materializes."""
        methods = [get_method("heur-l")]
        first = generate_ensemble("section8-hom", n_instances=2, seed=4)
        run_sweep(first, methods, self.BOUNDS, cache=ResultCache(tmp_path))

        ensemble = generate_ensemble("section8-hom", n_instances=3, seed=4)
        run_sweep(
            ensemble, methods, self.BOUNDS, cache=ResultCache(tmp_path), batch=False
        )
        assert ensemble._chains[:2] == [None, None]
        assert ensemble._chains[2] is not None

    def test_het_only_method_error_matches_problem_path(self, het_ensemble):
        with pytest.raises(ValueError, match="requires homogeneous platforms"):
            run_sweep(het_ensemble, [get_method("pareto-dp")], self.BOUNDS)


class TestObjectiveQuantiles:
    def test_quantiles_shape_and_monotonicity(self):
        ensemble = generate_ensemble("section8-hom", n_instances=5, seed=6)
        sweep = run_sweep(
            ensemble, [get_method("heur-l")],
            [(100.0, 750.0), (250.0, 750.0), (400.0, 750.0)],
        )
        q = sweep.objective_quantiles("heur-l")
        assert q.shape == (3, 3)
        solved_pts = sweep.counts("heur-l") > 0
        finite = q[:, solved_pts]
        assert np.all(np.isfinite(finite))
        assert np.all(finite[0] <= finite[1]) and np.all(finite[1] <= finite[2])
        # Reliability objective: quantiles are probabilities.
        assert np.all((finite >= 0.0) & (finite <= 1.0))

    def test_empty_points_are_nan(self):
        ensemble = generate_ensemble("section8-hom", n_instances=2, seed=6)
        sweep = run_sweep(ensemble, [get_method("heur-l")], [(0.001, 0.001)])
        assert sweep.counts("heur-l")[0] == 0
        assert np.all(np.isnan(sweep.objective_quantiles("heur-l")))

    def test_converse_objective_values(self):
        spec = get_scenario("section8-hom").spec.with_(
            n_instances=3, n_tasks=6, p=4
        )
        sweep = run_sweep(
            spec, [get_method("dp-period")], [(500.0, 750.0)],
            objective="period", min_reliability=0.25,
        )
        assert sweep.objective == "period"
        q = sweep.objective_quantiles("dp-period")
        assert q.shape == (3, 1) and np.isfinite(q[1, 0]) and q[1, 0] > 0

    def test_result_arrays_are_required(self):
        """Every sweep records objective values, periods and latencies,
        so a ``SweepResult`` cannot be built without them."""
        arrays = {name: np.zeros((1, 1, 1)) for name in ("solved", "failure")}
        with pytest.raises(TypeError, match="objective_values"):
            SweepResult(xs=np.zeros(1), method_names=["heur-l"], **arrays)
