"""Overhead of the Problem/solve() facade vs direct algorithm calls.

The :mod:`repro.solve` redesign routes every solve through three extra
layers — :class:`~repro.solve.Problem` construction, registry lookup +
capability checks in :func:`~repro.solve.solve`, and the canonical
dual-entry wrapper around each method's callable.  This bench measures
each layer on a paper-sized instance (15 tasks x 10 processors) and
asserts the stack adds only a small fraction on top of the underlying
heuristic solve, plus reports the planner's one-off cost (amortized
over a whole sweep, not paid per solve).

Dual entry points: a pytest-benchmark test (the CI "Facade overhead
bench" step) and a ``--json`` script mode for the benchmark-regression
gate::

    PYTHONPATH=src python benchmarks/bench_solve_facade.py --json out.json

The JSON carries machine-portable *ratio* metrics (facade time over
direct time, and so on) that ``benchmarks/compare_baseline.py`` checks
against the committed ``benchmarks/baseline.json``.
"""

import time

from repro.algorithms import heuristic_best
from repro.core import Platform
from repro.experiments import get_method
from repro.scenarios import generate_ensemble, get_scenario
from repro.solve import Planner, Problem, solve

try:
    from benchmarks.conftest import emit
except ImportError:  # script mode: no pytest plumbing to bypass
    def emit(*parts):
        print(" ".join(str(p) for p in parts))

ROUNDS = 30
BATCH = 10
P, L = 250.0, 750.0

#: Regression-gate metric names (see run_facade_bench).
BENCH_NAME = "bench_solve_facade"


def _time_interleaved(fns: dict) -> dict:
    """Per-call seconds for each labelled thunk, measured in alternating
    batches so CPU frequency drift hits every path equally."""
    for fn in fns.values():  # warm-up (imports, caches)
        fn()
    totals = dict.fromkeys(fns, 0.0)
    for _ in range(ROUNDS):
        for label, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(BATCH):
                fn()
            totals[label] += time.perf_counter() - t0
    return {label: total / (ROUNDS * BATCH) for label, total in totals.items()}


def run_facade_bench() -> dict:
    """Measure the facade stack and return the regression-gate metrics.

    All gate metrics are ratios against the direct ``heuristic_best``
    call on the same instance in the same process, so they compare
    across machines; ``direct_us`` is informational only.
    """
    chain, platform = generate_ensemble(
        get_scenario("section8-hom").spec.with_(n_instances=1), seed=3
    )[0]
    problem = Problem(chain, platform, max_period=P, max_latency=L)
    method = get_method("heur-l")

    timed = _time_interleaved({
        "direct": lambda: heuristic_best(
            chain, platform, max_period=P, max_latency=L,
            which="heur-l", selection="feasible-best",
        ),
        "method": lambda: method.solve_problem(problem),
        "facade": lambda: solve(problem, method="heur-l"),
    })
    direct, via_method, via_facade = timed["direct"], timed["method"], timed["facade"]
    construct = _time_interleaved(
        {"c": lambda: Problem(chain, platform, max_period=P, max_latency=L)}
    )["c"]
    plan = _time_interleaved({"p": lambda: Planner().plan("section8-hom")})["p"]

    # Platform/TaskChain hash caching: hashing an object repeatedly
    # (dict/set-heavy sweep code) must cost a dictionary probe, not a
    # re-serialization of both arrays on every call.
    def fresh_platform_hash():
        return hash(Platform(
            speeds=platform.speeds, failure_rates=platform.failure_rates,
            bandwidth=platform.bandwidth,
            link_failure_rate=platform.link_failure_rate,
            max_replication=platform.max_replication,
        ))

    hash_timed = _time_interleaved({
        "cached": lambda: hash(platform),
        "fresh": fresh_platform_hash,
    })
    rehash_ratio = hash_timed["cached"] / hash_timed["fresh"]

    emit()
    emit(f"solve facade overhead ({chain.n} tasks x {platform.p} procs, "
         f"{ROUNDS} rounds)")
    emit("path                         per call")
    for label, secs in (
        ("direct heuristic_best", direct),
        ("Method.solve_problem", via_method),
        ("solve(problem, method=...)", via_facade),
        ("Problem construction", construct),
        ("Planner().plan (per sweep)", plan),
        ("hash(platform) cached", hash_timed["cached"]),
        ("hash(platform) fresh object", hash_timed["fresh"]),
    ):
        emit(f"{label:27s} {secs * 1e6:9.1f} us")
    emit(f"facade overhead vs direct: {(via_facade - direct) / direct * 100:+.2f}%")
    emit(f"cached rehash vs fresh construct+hash: {rehash_ratio:.3f}x")

    return {
        "facade_vs_direct_ratio": via_facade / direct,
        "method_vs_direct_ratio": via_method / direct,
        "construct_vs_direct_ratio": construct / direct,
        "rehash_vs_fresh_ratio": rehash_ratio,
        "direct_us": direct * 1e6,
    }


def test_facade_overhead_is_negligible(benchmark):
    metrics = run_facade_bench()

    # "Negligible": the whole facade stack (Problem + registry lookup +
    # wrapper + capability check) must stay a small fraction of one
    # heuristic solve.  25% is a very generous ceiling for CI noise —
    # typical overhead is well under 5%.
    assert metrics["facade_vs_direct_ratio"] < 1.25
    assert metrics["method_vs_direct_ratio"] < 1.25
    # Problem construction is micro-scale, orders below a solve.
    assert metrics["construct_vs_direct_ratio"] < 0.1
    # Regression gate for the cached digests: rehashing an existing
    # Platform must be far cheaper than construct+first-hash (it used
    # to re-serialize both arrays per call).
    assert metrics["rehash_vs_fresh_ratio"] < 0.5

    chain, platform = generate_ensemble(
        get_scenario("section8-hom").spec.with_(n_instances=1), seed=3
    )[0]
    problem = Problem(chain, platform, max_period=P, max_latency=L)
    benchmark(lambda: solve(problem, method="heur-l"))


if __name__ == "__main__":
    try:
        from benchmarks.jsonbench import main
    except ImportError:  # plain `python benchmarks/bench_*.py` execution
        from jsonbench import main

    main(BENCH_NAME, run_facade_bench)
