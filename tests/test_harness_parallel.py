"""The parallel sweep runner must be bit-identical to the serial one.

Acceptance gate for the fan-out: on a seeded 10-instance suite,
``jobs=1`` and ``jobs=4`` reproduce the serial ``SweepResult.solved``
and ``.failure`` arrays *exactly* (not approximately), including for
stochastic (seeded) methods and for ad-hoc methods that cannot cross
the process boundary.  A worker that dies mid-sweep costs time, not
results: the parent recomputes what the broken pool lost.
"""

import multiprocessing
import os
import re

import numpy as np
import pytest

from repro.algorithms import heuristic_best
from repro.experiments import (
    METHODS,
    Method,
    get_method,
    homogeneous_suite,
    register_method,
    run_sweep,
)
from repro.experiments.harness import resolve_jobs
from repro.obs import collect

BOUNDS = [(100.0, 750.0), (250.0, 750.0), (400.0, 750.0)]


@pytest.fixture(scope="module")
def suite():
    return homogeneous_suite(n_instances=10, seed=42)


@pytest.fixture(scope="module")
def serial(suite):
    methods = [get_method("pareto-dp"), get_method("heur-l"), get_method("heur-p")]
    return run_sweep(suite, methods, BOUNDS, jobs=1)


class TestBitIdentical:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_matches_serial(self, suite, serial, jobs):
        methods = [get_method("pareto-dp"), get_method("heur-l"), get_method("heur-p")]
        result = run_sweep(suite, methods, BOUNDS, jobs=jobs)
        assert result.method_names == serial.method_names
        assert np.array_equal(result.solved, serial.solved)
        # Bit-for-bit, not allclose: cached/parallel runs must be
        # drop-in replacements for serial ones.
        assert np.array_equal(result.failure, serial.failure)
        assert np.array_equal(result.xs, serial.xs)

    def test_solved_shape_and_content(self, suite, serial):
        assert serial.solved.shape == (3, len(BOUNDS), 10)
        # The widest bound solves at least as many instances as the
        # tightest for the exact method.
        counts = serial.counts("pareto-dp")
        assert counts[-1] >= counts[0]


class TestSeededMethods:
    """Stochastic methods get deterministic per-unit seeds."""

    def test_anneal_parallel_matches_serial(self):
        suite = homogeneous_suite(n_instances=3, seed=5)
        methods = [get_method("anneal")]
        bounds = [(200.0, 750.0), (400.0, 750.0)]
        a = run_sweep(suite, methods, bounds, jobs=1)
        b = run_sweep(suite, methods, bounds, jobs=3)
        c = run_sweep(suite, methods, bounds, jobs=1)
        assert np.array_equal(a.solved, b.solved)
        assert np.array_equal(a.failure, b.failure)
        assert np.array_equal(a.failure, c.failure)


class TestAdHocMethods:
    """Method objects outside the registry still work with jobs > 1
    (they run in the parent, since a closure cannot be shipped by
    name)."""

    def test_unregistered_method_parallel(self, suite, serial):
        local = Method(
            name="local-heur-l",
            solve=lambda problem: heuristic_best(
                problem.chain, problem.platform,
                max_period=problem.max_period, max_latency=problem.max_latency,
                which="heur-l", selection="feasible-best",
            ),
            exact=False,
            homogeneous_only=False,
        )
        mixed = run_sweep(suite, [local, get_method("heur-p")], BOUNDS, jobs=4)
        assert np.array_equal(mixed.solved[0], serial.solved[serial._idx("heur-l")])
        assert np.array_equal(mixed.failure[1], serial.failure[serial._idx("heur-p")])


class TestDeadWorker:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers must inherit the runtime-registered method",
    )
    def test_broken_pool_shards_are_recomputed_in_parent(self, suite):
        parent = os.getpid()

        def dies_in_workers(problem):
            if os.getpid() != parent:
                os._exit(1)
            return get_method("heur-l").solve_problem(problem)

        method = register_method("dies-in-workers")(dies_in_workers)
        try:
            with collect() as telemetry:
                parallel = run_sweep(suite, [method], BOUNDS, jobs=2)
            serial = run_sweep(suite, [method], BOUNDS, jobs=1)
        finally:
            METHODS.pop("dies-in-workers", None)
        for name in ("solved", "failure", "objective_values", "period", "latency"):
            assert np.array_equal(getattr(parallel, name), getattr(serial, name)), name
        assert {e["source"] for e in parallel.unit_events} == {"recovered"}
        counters = telemetry.snapshot()["counters"]
        assert counters["sweep.units.recovered[dies-in-workers]"] == len(suite)


class TestJobsKnob:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit beats env

    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_invalid_env_jobs_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        message = f"REPRO_JOBS must be an integer >= 1, got {raw!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            resolve_jobs(None)

    def test_env_jobs_empty_or_padded(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", " 2 ")
        assert resolve_jobs(None) == 2

    def test_env_jobs_drives_sweep(self, monkeypatch, suite, serial):
        monkeypatch.setenv("REPRO_JOBS", "2")
        methods = [get_method("pareto-dp"), get_method("heur-l"), get_method("heur-p")]
        result = run_sweep(suite, methods, BOUNDS)
        assert np.array_equal(result.failure, serial.failure)
