"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Find the best mapping for an instance (JSON files for the chain and
    platform), with optional period/latency bounds, a choice of method,
    and a choice of objective: maximize reliability (the default), or
    minimize period/latency/energy under a ``--min-reliability`` floor
    (the tri-criteria facade; see :data:`repro.solve.OBJECTIVES`).
``evaluate``
    Print the Section 4 objectives of a mapping (JSON file).
``simulate``
    Run the fault-injecting pipeline simulator on a mapping and compare
    against the analytical values.
``figures``
    Regenerate paper figures (thin wrapper over
    :mod:`repro.experiments.figures`).
``experiment``
    Run a registered sweep experiment through the parallel,
    cache-backed harness: ``--jobs N`` fans work units out over worker
    processes, ``--cache-dir DIR`` reuses previously solved units, and
    a JSON **manifest** (``--manifest``, default
    ``repro-manifest.json``) records the seed, grid, library versions,
    elapsed time, and cache hit/miss counts of the run.  Environment
    fallbacks: ``$REPRO_JOBS``, ``$REPRO_CACHE_DIR``.
``scenario``
    The declarative workload layer (:mod:`repro.scenarios`):
    ``scenario list`` enumerates registered scenarios with their
    capability metadata, ``scenario show NAME`` prints a spec as
    re-loadable JSON, and ``scenario run NAME_OR_FILE`` generates the
    ensemble and sweeps it through the harness (same ``--jobs`` /
    ``--cache-dir`` knobs as ``experiment``; spec files may be JSON or
    TOML).  Methods default to the scenario-aware planner's selection
    (:mod:`repro.solve`); ``--grid auto`` replaces the single
    hand-picked (P, L) point with a quantile-derived multi-point grid
    (:func:`repro.solve.derive_bounds_grid`) and prints paper-style
    per-method curves.  Every run writes a self-describing JSON
    manifest (``--manifest``) recording the scenario spec hash and
    ``describe()`` record, the plan (selected methods plus skip
    reasons), the derived grid, and the per-method series.
``plan``
    The scenario-aware solver planner: ``plan show NAME_OR_FILE``
    prints which registered methods the planner selects for a
    workload, in execution order, and why it skipped the rest.
``runs``
    The run ledger (:mod:`repro.obs`): every ``scenario run`` /
    ``experiment`` invocation writes ``runs/<run_id>/{manifest.json,
    per_unit.jsonl, report.md}``; ``runs list`` tabulates them,
    ``runs show RUN`` prints one run's report (or manifest with
    ``--json``), and ``runs diff A B`` reports per-method objective
    deltas, timing deltas, and cache/batch behavior changes between
    two runs.  Run ids accept unique prefixes.  The ledger directory
    defaults to ``$REPRO_RUNS_DIR``, then ``./runs``.
``cache``
    The result cache's flat directory of ``<key>.json`` entries
    (:mod:`repro.experiments.cache`): ``cache stats`` prints its
    persistent on-disk totals (entry count, bytes), and ``cache
    vacuum`` removes the orphaned ``*.tmp`` files an interrupted
    writer leaves behind.  The directory defaults to
    ``$REPRO_CACHE_DIR``.
``lint``
    The repo's own invariant checkers (:mod:`repro.analysis`): an
    AST-level pass enforcing the determinism, cache-key-completeness,
    atomic-write, registry, and telemetry contracts over the source
    tree.  ``repro lint`` exits non-zero on any unwaived finding;
    ``--format json`` emits the deterministic machine-readable report
    the ``lint-invariants`` CI job archives, and ``--list-rules``
    prints the rule catalog.
``demo``
    Solve a seeded random instance end to end — no files needed.

All inputs/outputs use the :mod:`repro.io` JSON format; single-instance
solves go through :func:`repro.solve.solve` on a
:class:`repro.solve.Problem`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys

from repro import __version__

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    from repro.solve.objectives import OBJECTIVES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability/performance optimization of pipelined real-time systems",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="find the best mapping for an instance")
    solve.add_argument("chain", type=pathlib.Path, help="TaskChain JSON file")
    solve.add_argument("platform", type=pathlib.Path, help="Platform JSON file")
    solve.add_argument("--max-period", type=float, default=math.inf)
    solve.add_argument("--max-latency", type=float, default=math.inf)
    solve.add_argument(
        "--method",
        default="auto",
        help="a registered method name; an unknown name lists them all. "
        "'auto' = exact on homogeneous platforms, heuristics otherwise "
        "(objective-native methods for --objective period/latency/energy)",
    )
    solve.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="reliability",
        help="what to optimize: maximize reliability (default) or minimize "
        "period/latency/energy under --min-reliability",
    )
    solve.add_argument(
        "--min-reliability",
        type=float,
        default=0.0,
        metavar="R",
        help="reliability floor in [0, 1) for the converse objectives "
        "(default 0 = no floor)",
    )
    solve.add_argument("--output", type=pathlib.Path, help="write the mapping JSON here")

    evaluate = sub.add_parser("evaluate", help="evaluate a mapping's objectives")
    evaluate.add_argument("mapping", type=pathlib.Path, help="Mapping JSON file")

    simulate = sub.add_parser("simulate", help="fault-injection simulation of a mapping")
    simulate.add_argument("mapping", type=pathlib.Path, help="Mapping JSON file")
    simulate.add_argument("--datasets", type=int, default=2000)
    simulate.add_argument("--seed", type=int, default=0)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("names", nargs="+", help="fig6..fig15 or 'all'")
    figures.add_argument("--instances", type=int, default=20)
    figures.add_argument("--grid", choices=("reduced", "full"), default="reduced")
    figures.add_argument("--exact", choices=("ilp", "pareto-dp"), default="ilp")
    figures.add_argument("--seed", type=int, default=0)
    figures.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default $REPRO_JOBS or 1)")
    figures.add_argument("--cache-dir", type=pathlib.Path, default=None,
                         help="result cache directory (default $REPRO_CACHE_DIR)")

    experiment = sub.add_parser(
        "experiment",
        help="run a registered sweep through the parallel, cache-backed harness",
    )
    experiment.add_argument(
        "experiments",
        nargs="*",
        default=["hom-period"],
        help="experiment ids (e.g. hom-period het-latency) or 'all'; "
        "default hom-period",
    )
    experiment.add_argument("--instances", type=int, default=None,
                            help="instances per experiment (default $REPRO_INSTANCES or 20)")
    experiment.add_argument("--grid", choices=("reduced", "full"), default=None,
                            help="sweep resolution (default $REPRO_GRID or reduced)")
    experiment.add_argument("--exact", choices=("ilp", "pareto-dp"), default="pareto-dp",
                            help="exact method for hom experiments (default pareto-dp)")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes (default $REPRO_JOBS or 1)")
    experiment.add_argument("--cache-dir", type=pathlib.Path, default=None,
                            help="result cache directory (default $REPRO_CACHE_DIR)")
    experiment.add_argument("--manifest", type=pathlib.Path,
                            default=pathlib.Path("repro-manifest.json"),
                            help="where to write the run manifest JSON")
    experiment.add_argument("--quiet", action="store_true",
                            help="suppress the figure tables, print only the manifest path")
    experiment.add_argument("--runs-dir", type=pathlib.Path, default=None,
                            help="run-ledger directory (default $REPRO_RUNS_DIR or ./runs)")
    experiment.add_argument("--timestamp", default=None, metavar="TAG",
                            help="run_id timestamp tag (default: current UTC time; "
                            "pin it for reproducible run ids)")

    scenario = sub.add_parser(
        "scenario", help="declarative workload scenarios (list/show/run)"
    )
    ssub = scenario.add_subparsers(dest="scenario_cmd", required=True)

    ssub.add_parser("list", help="list registered scenarios and their metadata")

    show = ssub.add_parser("show", help="print one scenario's spec as JSON")
    show.add_argument("name", help="registered scenario name")

    run = ssub.add_parser(
        "run",
        help="generate a scenario's ensemble and sweep it through the harness",
    )
    run.add_argument(
        "scenario",
        help="registered scenario name, or a path to a spec file (.json/.toml)",
    )
    run.add_argument("--n-instances", type=int, default=None,
                     help="override the spec's instance count")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--methods", nargs="+", default=None, metavar="METHOD",
                     help="registered methods to sweep (default: the planner's "
                     "scenario-aware selection; see 'repro plan show')")
    run.add_argument("--grid", choices=("point", "auto"), default="point",
                     help="'point' sweeps the single --max-period/--max-latency "
                     "point; 'auto' derives a quantile (P, L) grid from "
                     "unbounded heuristic solves over the ensemble")
    run.add_argument("--grid-points", type=int, default=8,
                     help="grid points per axis for --grid auto (default 8)")
    run.add_argument("--grid-axis", choices=("period", "latency"), default="period",
                     help="which bound --grid auto sweeps (default period)")
    run.add_argument("--max-period", type=float, default=math.inf)
    run.add_argument("--max-latency", type=float, default=math.inf)
    run.add_argument("--objective", choices=OBJECTIVES, default="reliability",
                     help="objective carried by every solve (default reliability); "
                     "the planner only selects methods that support it")
    run.add_argument("--min-reliability", type=float, default=0.0, metavar="R",
                     help="reliability floor in [0, 1) for the converse objectives")
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default $REPRO_JOBS or 1)")
    run.add_argument("--cache-dir", type=pathlib.Path, default=None,
                     help="result cache directory (default $REPRO_CACHE_DIR)")
    run.add_argument("--manifest", type=pathlib.Path,
                     default=pathlib.Path("repro-scenario-manifest.json"),
                     help="where to write the self-describing run manifest JSON")
    run.add_argument("--runs-dir", type=pathlib.Path, default=None,
                     help="run-ledger directory (default $REPRO_RUNS_DIR or ./runs)")
    run.add_argument("--timestamp", default=None, metavar="TAG",
                     help="run_id timestamp tag (default: current UTC time; "
                     "pin it for reproducible run ids)")

    plan = sub.add_parser(
        "plan", help="scenario-aware method planning (show)"
    )
    psub = plan.add_subparsers(dest="plan_cmd", required=True)
    pshow = psub.add_parser(
        "show",
        help="show which methods the planner selects for a scenario, and why "
        "the rest were skipped",
    )
    pshow.add_argument(
        "scenario",
        help="registered scenario name, or a path to a spec file (.json/.toml)",
    )
    pshow.add_argument("--methods", nargs="+", default=None, metavar="METHOD",
                       help="explicit candidates (default: the whole registry)")
    pshow.add_argument("--objective", choices=OBJECTIVES,
                       default="reliability",
                       help="plan for this objective (methods that do not "
                       "support it are skipped with a reason)")
    pshow.add_argument("--max-exact-tasks", type=int, default=None,
                       help="size threshold past which exact methods are skipped")
    pshow.add_argument("--max-exact-procs", type=int, default=None,
                       help="processor threshold past which exact methods are skipped")
    pshow.add_argument("--include-stochastic", action="store_true",
                       help="auto-select stochastic (seeded) methods too")
    pshow.add_argument("--json", action="store_true",
                       help="print the plan as JSON instead of a table")

    runs = sub.add_parser(
        "runs", help="inspect the run ledger (list/show/diff)"
    )
    rsub = runs.add_subparsers(dest="runs_cmd", required=True)
    rlist = rsub.add_parser("list", help="tabulate every complete ledger run")
    rshow = rsub.add_parser(
        "show", help="print one run's report (or its manifest with --json)"
    )
    rshow.add_argument("run", help="run_id or unique run_id prefix")
    rdiff = rsub.add_parser(
        "diff",
        help="objective / timing / cache / batch-attribution deltas "
        "between two runs (b minus a)",
    )
    rdiff.add_argument("a", help="baseline run_id or unique prefix")
    rdiff.add_argument("b", help="comparison run_id or unique prefix")
    for sp in (rlist, rshow, rdiff):
        sp.add_argument("--runs-dir", type=pathlib.Path, default=None,
                        help="run-ledger directory (default $REPRO_RUNS_DIR or ./runs)")
        sp.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")

    cache = sub.add_parser(
        "cache", help="inspect and manage the result cache (stats/vacuum)"
    )
    csub = cache.add_subparsers(dest="cache_cmd", required=True)
    cstats = csub.add_parser(
        "stats", help="persistent on-disk totals of the cache store"
    )
    cvacuum = csub.add_parser(
        "vacuum", help="remove orphaned temp files left by interrupted writes"
    )
    for sp in (cstats, cvacuum):
        sp.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        help="cache directory (default $REPRO_CACHE_DIR)")
        sp.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST-level invariant checkers (repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", type=pathlib.Path,
        help="files or directories to lint (default: the src tree next "
        "to the working directory, or the installed package source)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="fmt", help="report format (json is deterministic)")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule subset (e.g. DET001,KEY001); "
                      "waiver-audit rules only run on a full pass")
    lint.add_argument("--output", type=pathlib.Path, default=None,
                      help="also write the report to this file (atomically)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    demo = sub.add_parser("demo", help="solve a seeded random instance end to end")
    demo.add_argument("--tasks", type=int, default=10)
    demo.add_argument("--processors", type=int, default=8)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--heterogeneous", action="store_true")
    return parser


def _load(path: pathlib.Path, expected: type) -> object:
    from repro.io import loads

    obj = loads(path.read_text())
    if not isinstance(obj, expected):
        raise SystemExit(f"{path} holds a {type(obj).__name__}, expected {expected.__name__}")
    return obj


def _print_solution(result, objective: str = "reliability") -> None:
    if not result.feasible:
        print(f"infeasible ({result.method})")
        return
    ev = result.evaluation
    print(f"method           : {result.method}")
    print(f"mapping          : {result.mapping}")
    print(f"failure prob     : {ev.failure_probability:.6e}")
    print(f"log reliability  : {ev.log_reliability:.6e}")
    print(f"worst-case period: {ev.worst_case_period:g}")
    print(f"worst-case latency: {ev.worst_case_latency:g}")
    if objective != "reliability":
        print(f"objective ({objective}): {result.objective_value(objective):g}")


def _cmd_solve(args) -> int:
    from repro.core import Platform, TaskChain
    from repro.io import dumps
    from repro.obs.ledger import write_atomic
    from repro.solve import Problem, solve

    chain = _load(args.chain, TaskChain)
    platform = _load(args.platform, Platform)
    try:
        problem = Problem(
            chain, platform,
            max_period=args.max_period, max_latency=args.max_latency,
            objective=args.objective, min_reliability=args.min_reliability,
        )
        result = solve(problem, method=args.method)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _print_solution(result, objective=args.objective)
    if result.feasible and args.output:
        write_atomic(args.output, dumps(result.mapping, indent=2))
        print(f"wrote {args.output}")
    return 0 if result.feasible else 1


def _cmd_evaluate(args) -> int:
    from repro.core import Mapping, evaluate_mapping

    mapping = _load(args.mapping, Mapping)
    ev = evaluate_mapping(mapping)
    print(json.dumps(
        {
            "log_reliability": ev.log_reliability,
            "failure_probability": ev.failure_probability,
            "expected_latency": ev.expected_latency,
            "worst_case_latency": ev.worst_case_latency,
            "expected_period": ev.expected_period,
            "worst_case_period": ev.worst_case_period,
        },
        indent=2,
    ))
    return 0


def _cmd_simulate(args) -> int:
    from repro.core import Mapping
    from repro.simulation import validate_against_analytical

    mapping = _load(args.mapping, Mapping)
    report = validate_against_analytical(
        mapping, n_datasets=args.datasets, rng=args.seed
    )
    print(json.dumps({k: v for k, v in report.items() if not isinstance(v, tuple)},
                     indent=2, default=float))
    return 0 if report["all_ok"] else 1


def _cmd_figures(args) -> int:
    from repro.experiments.figures import FIGURES, run_experiment, run_figure
    from repro.experiments.report import render_figure

    wanted = list(FIGURES) if "all" in args.names else args.names
    for name in wanted:
        if name not in FIGURES:
            raise SystemExit(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    by_exp: dict[str, list[str]] = {}
    for name in wanted:
        by_exp.setdefault(FIGURES[name][0], []).append(name)
    for exp_id, figs in by_exp.items():
        exp = run_experiment(
            exp_id,
            n_instances=args.instances,
            grid=args.grid,
            seed=args.seed,
            exact_method=args.exact,
            jobs=args.jobs,
            cache=args.cache_dir,
        )
        for name in figs:
            print(render_figure(run_figure(name, experiment_result=exp)))
            print()
    return 0


def _run_timestamp(args) -> str:
    """The run_id timestamp tag: ``--timestamp`` or the current UTC time."""
    import time

    tag = getattr(args, "timestamp", None)
    return tag if tag else time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


def _series_record(sweep, prefix: str = "") -> dict:
    """Per-method manifest series of one sweep (counts, failures,
    objective quantiles per grid point) — the record ``runs diff``
    compares across runs.  *prefix* namespaces method names when one
    manifest aggregates several sweeps."""
    import numpy as np

    return {
        prefix + name: {
            "counts": [int(c) for c in sweep.counts(name)],
            "avg_failure": [
                None if np.isnan(v) else float(v)
                for v in sweep.average_failure(name, rule="per-method")
            ],
            "objective_quantiles": {
                f"p{round(q * 100)}": [
                    float(v) if np.isfinite(v) else None for v in row
                ]
                for q, row in zip((0.1, 0.5, 0.9), sweep.objective_quantiles(name))
            },
        }
        for name in sweep.method_names
    }


def _cmd_experiment(args) -> int:
    import platform as _platform
    import time

    import numpy as np

    from repro.experiments.cache import resolve_cache
    from repro.experiments.figures import EXPERIMENTS, run_experiment, run_figure
    from repro.experiments.harness import resolve_jobs
    from repro.experiments.report import render_figure
    from repro.obs import run_id_for, write_run
    from repro.obs import telemetry as obs
    from repro.obs.ledger import write_atomic

    wanted = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for exp_id in wanted:
        if exp_id not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
            )
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        raise SystemExit(str(exc))
    cache = resolve_cache(args.cache_dir)
    timestamp = _run_timestamp(args)

    manifest: dict = {
        "command": "experiment",
        "timestamp": timestamp,
        "experiments": wanted,
        "seed": args.seed,
        "jobs": jobs,
        "exact_method": args.exact,
        "cache_dir": str(cache.root) if cache is not None else None,
        "versions": {
            "repro": __version__,
            "numpy": np.__version__,
            "python": _platform.python_version(),
        },
        "runs": [],
    }
    series: dict = {}
    unit_events: list[dict] = []
    batch_units = 0
    seconds: dict = {}
    t0 = time.perf_counter()
    with obs.collect() as tele:
        for exp_id in wanted:
            start = time.perf_counter()
            exp = run_experiment(
                exp_id,
                n_instances=args.instances,
                grid=args.grid,
                seed=args.seed,
                exact_method=args.exact,
                jobs=jobs,
                cache=cache,
            )
            elapsed = time.perf_counter() - start
            spec = exp.spec
            exp_batch = sum(s.batch_units for s in exp.sweeps.values())
            batch_units += exp_batch
            for skey in sorted(exp.sweeps):
                sweep = exp.sweeps[skey]
                # Namespaced per experiment and suite so het runs' two
                # sweeps (and multi-experiment manifests) never collide.
                series.update(_series_record(sweep, prefix=f"{exp_id}:{skey}:"))
                for event in sweep.unit_events:
                    unit_events.append(
                        {"experiment": exp_id, "suite": skey, **event}
                    )
            seconds[exp_id] = round(elapsed, 3)
            manifest["runs"].append(
                {
                    "experiment": exp_id,
                    "n_instances": exp.n_instances,
                    "grid": exp.grid,
                    "figures": [spec.count_figure, spec.failure_figure],
                    "methods": sorted(
                        {n for sweep in exp.sweeps.values() for n in sweep.method_names}
                    ),
                    "n_points": int(exp.xs.size),
                    "seconds": round(elapsed, 3),
                    "batch_units": exp_batch,
                    "timings": {
                        skey: {k: round(v, 6) for k, v in exp.sweeps[skey].timings.items()}
                        for skey in sorted(exp.sweeps)
                    },
                    # The declarative workload behind the run, so the
                    # manifest is self-describing: spec content hash (the
                    # cache-key scenario component) plus the registry-style
                    # describe() record.
                    "scenario": _scenario_record(exp.scenario_spec, exp.scenario_key),
                    # How the paper-methods candidate set survived the
                    # planner's gates (selection is derived, not hard-coded).
                    "plan": exp.plan.describe() if exp.plan is not None else None,
                }
            )
            if not args.quiet:
                for fig in (spec.count_figure, spec.failure_figure):
                    print(render_figure(run_figure(fig, experiment_result=exp)))
                    print()
    seconds["total"] = round(time.perf_counter() - t0, 3)
    manifest["seconds"] = seconds
    manifest["series"] = series
    manifest["batch_units"] = batch_units
    manifest["cache"] = cache.stats() if cache is not None else None
    manifest["telemetry"] = tele.snapshot()
    run_id = run_id_for(
        {
            "command": "experiment",
            "experiments": wanted,
            "seed": args.seed,
            "instances": args.instances,
            "grid": args.grid,
            "exact_method": args.exact,
        },
        timestamp,
    )
    manifest["run_id"] = run_id
    run_dir = write_run(args.runs_dir, run_id, manifest, per_unit=unit_events)
    write_atomic(args.manifest, json.dumps(manifest, indent=2) + "\n")
    print(f"wrote manifest {args.manifest}")
    print(f"ledger run {run_id} -> {run_dir}")
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses, {cache.puts} writes")
    return 0


def _scenario_record(spec, spec_hash: "str | None", entry=None) -> "dict | None":
    """Self-describing manifest record for a scenario spec (or None).

    *entry* (the registry :class:`~repro.scenarios.registry.Scenario`,
    when the spec came from one) contributes its capability metadata
    and tags; bare specs fall back to the derived homogeneity check.
    """
    if spec is None:
        return None
    from repro.scenarios import Scenario, spec_is_homogeneous

    scenario = Scenario(
        spec=spec,
        homogeneous=entry.homogeneous if entry is not None else spec_is_homogeneous(spec),
        tags=entry.tags if entry is not None else (),
    )
    return {
        "name": spec.name,
        "spec_hash": spec_hash,
        "describe": scenario.describe(),
    }


def _resolve_scenario_token(token: str):
    """Resolve a CLI scenario argument: registry name first, then file.

    Returns ``(spec, scenario-or-None)``.
    """
    from repro.scenarios import (
        SCENARIOS,
        UnknownScenarioError,
        get_scenario,
        load_spec,
    )

    try:
        entry = get_scenario(token)
        return entry.spec, entry
    except UnknownScenarioError:
        path = pathlib.Path(token)
        if not path.exists():
            raise SystemExit(
                f"unknown scenario {token!r} and no such spec file; "
                f"registered: {sorted(SCENARIOS)}"
            )
        try:
            return load_spec(path), None
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot load scenario spec {path}: {exc}")


def _cmd_scenario(args) -> int:
    from repro.experiments.harness import check_min_reliability, resolve_jobs, run_sweep
    from repro.scenarios import SCENARIOS, generate_ensembles, scenario_hash

    if args.scenario_cmd == "list":
        header = f"{'name':20s} {'inst':>5s} {'tasks':>9s} {'procs':>7s} {'mode':>12s}  hom pair  tags"
        print(header)
        print("-" * len(header))
        for name in sorted(SCENARIOS):
            d = SCENARIOS[name].describe()
            fmt = lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v)
            print(
                f"{d['name']:20s} {d['n_instances']:>5d} {fmt(d['n_tasks']):>9s} "
                f"{fmt(d['p']):>7s} {d['rng_mode']:>12s}  "
                f"{'yes' if d['homogeneous'] else ' no'} "
                f"{'yes' if d['paired'] else ' no'}  {','.join(d['tags'])}"
            )
        return 0

    if args.scenario_cmd == "show":
        from repro.io import dumps

        spec, entry = _resolve_scenario_token(args.name)
        print(dumps(spec, indent=2))
        if entry is not None:
            print(
                f"# homogeneous={entry.homogeneous} paired={entry.paired} "
                f"tags={','.join(entry.tags) or '-'} "
                f"variants={len(spec.variants())}",
                file=sys.stderr,
            )
        return 0

    # scenario run
    import platform as _platform
    import time

    import numpy as np

    from repro.experiments.cache import resolve_cache
    from repro.obs import run_id_for, write_run
    from repro.obs import telemetry as obs
    from repro.obs.ledger import write_atomic
    from repro.solve import Planner, derive_bounds_grid, encode_bound
    from repro.solve.grid import check_grid_points

    spec, entry = _resolve_scenario_token(args.scenario)
    # Bad input fails here, before generation, grid probes or cache writes.
    try:
        jobs = resolve_jobs(args.jobs)
        check_min_reliability(args.min_reliability, args.objective)
        if args.grid == "auto":
            check_grid_points(args.grid_points)
        if args.n_instances is not None:
            spec = spec.with_(n_instances=args.n_instances)
    except ValueError as exc:
        raise SystemExit(str(exc))
    spec_hash = scenario_hash(spec)
    timestamp = _run_timestamp(args)
    t_run = time.perf_counter()
    collector = obs.Telemetry()

    # The scenario-aware planner picks and orders the methods —
    # explicitly requested ones still pass through its hard capability
    # gates, so e.g. an exact solver on a heterogeneous scenario (or a
    # reliability heuristic under --objective period) is skipped with a
    # recorded reason instead of crashing the sweep.
    with obs.collect(collector):
        plan = Planner().plan(
            entry if entry is not None and entry.spec == spec else spec,
            methods=args.methods,
            objective=args.objective,
        )
    for skip in plan.skipped:
        if args.methods:
            print(f"note: skipping {skip.method}: {skip.reason}", file=sys.stderr)
    if not plan.selected:
        reasons = "; ".join(f"{s.method}: {s.reason}" for s in plan.skipped)
        raise SystemExit(f"no applicable methods for scenario {spec.name!r} ({reasons})")
    methods = plan.methods()

    t0 = time.perf_counter()
    # Columnar generation: the ensembles' rows materialize lazily, so a
    # fully cached run never builds a TaskChain or Platform object.
    # Paired ensembles' views expose the heterogeneous side directly.
    instances = generate_ensembles(spec, seed=args.seed)
    gen_seconds = time.perf_counter() - t0
    n = sum(len(e) for e in instances)
    paired_note = " (paired: sweeping the heterogeneous side)" if spec.paired else ""
    print(
        f"scenario {spec.name!r}: {n} instances "
        f"({len(spec.variants())} variant(s)), generated in {gen_seconds:.3f}s"
        f"{paired_note}"
    )
    print(f"plan: {', '.join(plan.selected)} "
          f"({len(plan.skipped)} skipped; see 'repro plan show {args.scenario}')")

    # One cache shared by the grid probes and the sweep units, so the
    # manifest's hit/miss counters cover the whole run.
    cache = resolve_cache(args.cache_dir)

    grid_record = None
    grid_seconds = 0.0
    if args.grid == "auto":
        t0 = time.perf_counter()
        try:
            with obs.collect(collector):
                grid = derive_bounds_grid(
                    instances, n_points=args.grid_points, seed=args.seed,
                    cache=cache,
                )
        except ValueError as exc:
            raise SystemExit(str(exc))
        grid_seconds = time.perf_counter() - t0
        bounds = grid.sweep(args.grid_axis)
        xs = grid.xs(args.grid_axis)
        grid_record = {"mode": "auto", "axis": args.grid_axis, **grid.describe()}
        print(
            f"derived {args.grid_axis} grid: {len(bounds)} points in "
            f"[{xs[0]:g}, {xs[-1]:g}] "
            f"(quantiles of unbounded {grid.method!r} solves, {grid_seconds:.3f}s)"
        )
    else:
        bounds = [(args.max_period, args.max_latency)]
        xs = None
        grid_record = {
            "mode": "point",
            "max_period": encode_bound(args.max_period),
            "max_latency": encode_bound(args.max_latency),
        }

    t0 = time.perf_counter()
    try:
        with obs.collect(collector):
            sweep = run_sweep(
                instances,
                methods,
                bounds,
                xs=xs,
                jobs=jobs,
                cache=cache,
                scenario_key=spec_hash,
                objective=args.objective,
                min_reliability=args.min_reliability,
            )
    except ValueError as exc:
        raise SystemExit(str(exc))
    sweep_seconds = time.perf_counter() - t0

    def fmt_value(value) -> str:
        return "-" if np.isnan(value) else f"{value:.3e}"

    if len(bounds) == 1:
        P, L = bounds[0]
        print(f"sweep point: period <= {P:g}, latency <= {L:g} ({sweep_seconds:.3f}s)")
        print(
            f"{'method':14s} {'solved':>8s}  {'avg failure':>12s}  "
            f"{args.objective} p10/p50/p90 (solved)"
        )
        for name in sweep.method_names:
            count = int(sweep.counts(name)[0])
            avg = sweep.average_failure(name, rule="per-method")[0]
            avg_text = f"{avg:.3e}" if count else "-"
            q10, q50, q90 = sweep.objective_quantiles(name)[:, 0]
            print(
                f"{name:14s} {count:>4d}/{n:<4d} {avg_text:>12s}  "
                f"{fmt_value(q10)} / {fmt_value(q50)} / {fmt_value(q90)}"
            )
    else:
        from repro.experiments.figures import FigureResult
        from repro.experiments.report import render_series_table

        print(f"sweep: {len(bounds)} points x {len(methods)} methods ({sweep_seconds:.3f}s)")
        for metric, series in (
            ("count", {m: sweep.counts(m) for m in sweep.method_names}),
            ("failure", {
                m: sweep.average_failure(m, rule="per-method")
                for m in sweep.method_names
            }),
        ):
            what = "solutions" if metric == "count" else "avg failure (per-method)"
            fig = FigureResult(
                figure=what, experiment=spec.name, metric=metric,
                xs=sweep.xs, series=series, n_instances=n, grid="auto",
            )
            print(f"\n{what} vs {args.grid_axis} bound:")
            print(render_series_table(fig, x_label=args.grid_axis))
        # Per-point quantiles of the *achieved* objective (ROADMAP
        # "objective-aware sweep aggregations"): how good the optimum
        # is across the ensemble, not just how often one exists.
        for name in sweep.method_names:
            q = sweep.objective_quantiles(name)
            fig = FigureResult(
                figure="objective", experiment=spec.name, metric="objective",
                xs=sweep.xs,
                series={"p10": q[0], "p50": q[1], "p90": q[2]},
                n_instances=n, grid="auto",
            )
            print(f"\nachieved {args.objective} quantiles for {name} "
                  f"vs {args.grid_axis} bound:")
            print(render_series_table(fig, x_label=args.grid_axis))

    # Per-phase wall-clock (satellite of the run ledger): generation,
    # grid derivation, the sweep, the whole command, and each method's
    # attributed solve time from the sweep's per-unit events.
    seconds = {
        "generate": round(gen_seconds, 3),
        "grid": round(grid_seconds, 3),
        "sweep": round(sweep_seconds, 3),
        "total": round(time.perf_counter() - t_run, 3),
    }
    for name, value in sorted(sweep.method_seconds().items()):
        seconds[f"solve[{name}]"] = round(value, 6)

    manifest = {
        "command": "scenario-run",
        "timestamp": timestamp,
        "scenario": _scenario_record(spec, spec_hash, entry),
        "seed": args.seed,
        "n_instances": n,
        "objective": args.objective,
        "min_reliability": args.min_reliability,
        "plan": plan.describe(),
        "grid": grid_record,
        "points": [[encode_bound(P), encode_bound(L)] for P, L in bounds],
        "series": _series_record(sweep),
        "seconds": seconds,
        "batch_units": sweep.batch_units,
        "timings": {k: round(v, 6) for k, v in sweep.timings.items()},
        "cache": cache.stats() if cache is not None else None,
        "telemetry": collector.snapshot(),
        "versions": {
            "repro": __version__,
            "numpy": np.__version__,
            "python": _platform.python_version(),
        },
    }
    run_id = run_id_for(
        {
            "command": "scenario-run",
            "scenario": spec_hash,
            "seed": args.seed,
            "n_instances": n,
            "methods": list(plan.selected),
            "objective": args.objective,
            "min_reliability": args.min_reliability,
            "grid": {
                "mode": args.grid,
                "axis": args.grid_axis,
                "points": args.grid_points,
            },
        },
        timestamp,
    )
    manifest["run_id"] = run_id
    run_dir = write_run(args.runs_dir, run_id, manifest, per_unit=sweep.unit_events)
    write_atomic(args.manifest, json.dumps(manifest, indent=2) + "\n")
    print(f"\nwrote manifest {args.manifest}")
    print(f"ledger run {run_id} -> {run_dir}")
    return 0


def _cmd_plan(args) -> int:
    from repro.solve import Planner

    spec, entry = _resolve_scenario_token(args.scenario)
    config = {}
    if args.max_exact_tasks is not None:
        config["max_exact_tasks"] = args.max_exact_tasks
    if args.max_exact_procs is not None:
        config["max_exact_procs"] = args.max_exact_procs
    if args.include_stochastic:
        config["include_stochastic"] = True
    try:
        plan = Planner(**config).plan(
            entry if entry is not None else spec,
            methods=args.methods,
            objective=args.objective,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(plan.describe(), indent=2))
    else:
        print(plan.summary())
    return 0


def _cmd_runs(args) -> int:
    from repro.obs import diff_runs, list_runs, load_run, render_diff, resolve_runs_dir

    if args.runs_cmd == "list":
        rows = list_runs(args.runs_dir)
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        if not rows:
            print(f"no runs under {resolve_runs_dir(args.runs_dir)}")
            return 0
        header = (
            f"{'run_id':32s} {'command':13s} {'scenario':18s} "
            f"{'inst':>5s} {'seconds':>8s} {'cache h/m':>10s} {'batch':>6s}"
        )
        print(header)
        print("-" * len(header))
        for row in rows:
            seconds = row["seconds"]
            hits, misses = row["cache_hits"], row["cache_misses"]
            print(
                f"{row['run_id']:32s} {str(row['command'] or '-'):13s} "
                f"{str(row['scenario'] or '-'):18s} "
                f"{str(row['n_instances'] if row['n_instances'] is not None else '-'):>5s} "
                f"{f'{seconds:.3f}' if isinstance(seconds, (int, float)) else '-':>8s} "
                f"{(f'{hits}/{misses}' if hits is not None else '-'):>10s} "
                f"{str(row['batch_units'] if row['batch_units'] is not None else '-'):>6s}"
            )
        return 0

    try:
        if args.runs_cmd == "show":
            record = load_run(args.run, args.runs_dir)
            if args.json:
                print(json.dumps(record.manifest, indent=2, sort_keys=True))
            else:
                print(record.report, end="")
            return 0
        a = load_run(args.a, args.runs_dir)
        b = load_run(args.b, args.runs_dir)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    diff = diff_runs(a, b)
    print(json.dumps(diff, indent=2) if args.json else render_diff(diff))
    return 0


def _cmd_cache(args) -> int:
    from repro.experiments.cache import ResultCache

    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        raise SystemExit(
            "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    cache = ResultCache(root)
    report = cache.storage_stats() if args.cache_cmd == "stats" else cache.vacuum()
    report["root"] = str(cache.root)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        width = max(len(field) for field in report)
        for field in sorted(report):
            print(f"{field:{width}s} : {report[field]}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import RULES, render_json, render_text, run_lint

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule in sorted(RULES):
            print(f"{rule:{width}s}  {RULES[rule]}")
        return 0

    paths = list(args.paths)
    if not paths:
        # Default target: the source tree of the working copy when run
        # from a checkout, else the installed package itself.
        src = pathlib.Path("src")
        if (src / "repro").is_dir():
            paths = [src]
        else:
            paths = [pathlib.Path(__file__).parent]
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        findings = run_lint(paths, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    report = render_json(findings) if args.fmt == "json" else render_text(findings)
    print(report, end="")
    if args.output:
        from repro.obs.ledger import write_atomic

        write_atomic(args.output, report)
    return 1 if findings else 0


def _cmd_demo(args) -> int:
    import numpy as np

    from repro.core import Platform, random_chain, random_platform
    from repro.solve import Problem, solve

    rng = np.random.default_rng(args.seed)
    chain = random_chain(args.tasks, rng)
    if args.heterogeneous:
        platform = random_platform(args.processors, rng)
    else:
        platform = Platform.homogeneous_platform(
            args.processors,
            failure_rate=1e-8,
            link_failure_rate=1e-5,
            max_replication=3,
        )
    print(f"instance: {chain}, {platform}")
    base = Problem(chain, platform)
    ev_bounds = solve(base).evaluation  # unbounded, method="auto"
    P = ev_bounds.worst_case_period * 1.2
    L = ev_bounds.worst_case_latency * 1.2
    print(f"derived bounds: period <= {P:g}, latency <= {L:g}\n")
    _print_solution(solve(base.with_bounds(max_period=P, max_latency=L)))
    return 0


COMMANDS = {
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "figures": _cmd_figures,
    "experiment": _cmd_experiment,
    "scenario": _cmd_scenario,
    "plan": _cmd_plan,
    "runs": _cmd_runs,
    "cache": _cmd_cache,
    "lint": _cmd_lint,
    "demo": _cmd_demo,
}


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``repro scenario list | head
    -1``) ends the command with exit code 1 and no traceback.
    """
    try:
        args = build_parser().parse_args(argv)
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; pointing the
        # descriptor at devnull keeps that flush from raising anew
        # (the recipe in the ``signal`` module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)  # repro-lint: disable=IO001 null device
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
