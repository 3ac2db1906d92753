"""Whole-run benchmark of `repro scenario run --grid auto`, cold and warm.

Run from the repository root::

    python3 perfbench/run.py --workload hom-reliability --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each
    python3 perfbench/run.py --smoke               # self-check at a tiny instance count

With ``--trace 0`` each repetition runs ``python -m repro scenario run``
as a subprocess twice: cold on an empty cache, then warm on the cache
the cold run filled.  It reports the end-to-end metrics of
BENCHMARK.json as medians over the repetitions that fit in
``--seconds``.  With ``--trace 1`` it runs `traced.py`, which calls each
layer in-process and times it, next to an untraced cold subprocess, and
reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  An invocation fails
when it exits non-zero, when its result digest differs from the
reference recorded in refs.json, or when a warm run shows any cache
miss.  See README.md for the workloads, the seed and the measured
spread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from traced import series_digest  # this directory is sys.path[0] when run as a script

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Reference digests are recorded for this many scenario seeds; the
#: benchmark's --seed n selects scenario seed n % N_REF_SEEDS.
N_REF_SEEDS = 32

#: Grid points of `--grid auto` in every workload.
GRID_POINTS = 8

#: Repetitions of `python -c "import repro.cli"` behind setup_s.
SETUP_SAMPLES = 5

#: Longest any single subprocess may run before it is killed.
CHILD_TIMEOUT_S = 150.0

#: name -> (scenario, instances, smoke instances, jobs, objective, floor)
WORKLOADS = {
    "hom-reliability": ("section8-hom", 30, 4, 1, "reliability", 0.0),
    "hom-latency": ("section8-hom", 30, 4, 1, "latency", 0.9),
    "het-paper": ("section8-het", 30, 4, 2, "reliability", 0.0),
    "long-chain": ("long-chain", 8, 2, 1, "reliability", 0.0),
}

#: Environment that would redirect or pre-fill a run's cache, ledger or
#: sizes; cleared for every subprocess.
CLEARED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_BACKEND",
    "REPRO_JOBS",
    "REPRO_RUNS_DIR",
    "REPRO_INSTANCES",
    "REPRO_GRID",
)

#: The traced layers whose seconds add up, with run.unattributed_s, to
#: run.traced_s (the traced process from spawn to the end of its cold leg).
TOP_LAYERS = (
    "import.cli_s",
    "import.command_s",
    "planner.plan_s",
    "scenarios.generate_s",
    "grid.cold_s",
    "sweep.cold_s",
    "ledger.write_s",
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken import)."""


def workload_config(name: str, seed: int, smoke: bool) -> dict:
    scenario, n, n_smoke, jobs, objective, floor = WORKLOADS[name]
    return {
        "workload": name,
        "scenario": scenario,
        "n_instances": n_smoke if smoke else n,
        "seed": seed % N_REF_SEEDS,
        "jobs": jobs,
        "objective": objective,
        "min_reliability": floor,
        "grid_points": GRID_POINTS,
    }


def cli_args(cfg: dict, cache: pathlib.Path, leg: pathlib.Path) -> list[str]:
    args = [
        sys.executable, "-m", "repro", "scenario", "run", cfg["scenario"],
        "--n-instances", str(cfg["n_instances"]),
        "--seed", str(cfg["seed"]),
        "--grid", "auto", "--grid-points", str(cfg["grid_points"]),
        "--jobs", str(cfg["jobs"]),
        "--cache-dir", str(cache),
        "--runs-dir", str(leg / "runs"),
        "--manifest", str(leg / "manifest.json"),
    ]
    if cfg["objective"] != "reliability":
        args += ["--objective", cfg["objective"],
                 "--min-reliability", repr(cfg["min_reliability"])]
    return args


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], cwd: pathlib.Path, stderr_path: pathlib.Path) -> dict:
    """Run *args* to completion; return wall seconds, exit code and peak RSS.

    The child gets its own session, so a timeout kills it together with
    any pool workers it started.  Its rusage (from wait4) covers the
    child and every descendant it reaped, so ``maxrss`` is the largest
    resident set among them.
    """
    with open(stderr_path, "wb") as err:
        start_epoch = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM/SIGINT): take the child's session down too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "start_epoch": start_epoch}


def references() -> dict:
    return json.loads((HERE / "refs.json").read_text())


def reference_digest(refs: dict, cfg: dict) -> str:
    try:
        return refs[cfg["workload"]][str(cfg["n_instances"])][str(cfg["seed"])]
    except KeyError:
        raise BenchError(
            f"no reference digest for {cfg['workload']} at {cfg['n_instances']} "
            f"instances, seed {cfg['seed']}; see README.md on refs.json"
        ) from None


class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def check_manifest(path: pathlib.Path, want: str, warm: bool) -> "str | None":
    """Why the run that wrote *path* failed, or None when it is correct."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable manifest: {exc}"
    got = series_digest(manifest["series"])
    if got != want:
        return f"result digest {got[:12]} != reference {want[:12]}"
    if warm:
        counters = manifest["telemetry"]["counters"]
        solved = [k for k in counters
                  if k.startswith(("grid.probe.solved", "sweep.units."))
                  and not k.startswith("sweep.units.cached")]
        if manifest["cache"]["misses"] or solved:
            return f"warm run missed the cache: {manifest['cache']} {solved}"
    return None


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A temporary directory under the checkout, after checking the
    package source is there and imports; removed on exit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}; run from a checkout root")
    parent = ROOT / ".perfbench-tmp"
    parent.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        # One untimed import compiles the bytecode before any timing.
        out = spawn([sys.executable, "-c", "import repro.cli"], tmp, tmp / "warmup.err")
        if out["code"] != 0:
            raise BenchError("`import repro.cli` failed:\n" + (tmp / "warmup.err").read_text())
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def measure_untraced(cfg: dict, want: str, seconds: float, tmp: pathlib.Path,
                     tally: Tally) -> dict:
    """Repetitions of (setup_s sample, cold run, warm run) while they fit in
    *seconds*, then setup_s samples up to SETUP_SAMPLES.

    Spreading every kind of sample over the whole run lets each median
    see the same share of the machine's slow and fast spells.
    """
    deadline = time.perf_counter() + seconds
    samples: dict[str, list[float]] = {"setup_s": [], "cold_s": [], "warm_s": [],
                                       "peak_rss_mb": []}
    setup_runs = 0

    def setup_sample() -> None:
        nonlocal setup_runs
        out = spawn([sys.executable, "-c", "import repro.cli"], tmp, tmp / "setup.err")
        if tally.record(out["code"] == 0, f"setup sample {setup_runs}: exit {out['code']}"):
            samples["setup_s"].append(out["wall"])
        setup_runs += 1

    rep_s = 0.0
    rep = 0
    while rep < 1 or time.perf_counter() + rep_s < deadline:
        t0 = time.perf_counter()
        setup_sample()
        pair = tmp / f"pair{rep}"
        for leg in ("cold", "warm"):
            (pair / leg).mkdir(parents=True)
            out = spawn(cli_args(cfg, pair / "cache", pair / leg), pair / leg,
                        pair / leg / "stderr.txt")
            why = (f"exit {out['code']}: {(pair / leg / 'stderr.txt').read_text()[-400:]}"
                   if out["code"] != 0
                   else check_manifest(pair / leg / "manifest.json", want, leg == "warm"))
            if tally.record(why is None, f"{leg} run {rep}: {why}"):
                samples[f"{leg}_s"].append(out["wall"])
                if leg == "cold":
                    samples["peak_rss_mb"].append(out["rss_mb"])
        shutil.rmtree(pair)
        rep_s = time.perf_counter() - t0
        rep += 1
    while setup_runs < SETUP_SAMPLES:
        setup_sample()
    return samples


def run_traced(cfg: dict, work: pathlib.Path) -> "tuple[dict, dict | None, str | None]":
    """Run traced.py for *cfg* in a new directory *work*.

    Returns its spawn record, its result (None when it failed) and why
    it failed.
    """
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({**cfg, "work_dir": str(work)}))
    out = spawn([sys.executable, str(HERE / "traced.py"), str(config), str(work / "result.json")],
                work, work / "stderr.txt")
    if out["code"] != 0:
        return out, None, f"exit {out['code']}: {(work / 'stderr.txt').read_text()[-400:]}"
    return out, json.loads((work / "result.json").read_text()), None


def measure_traced(cfg: dict, want: str, seconds: float, tmp: pathlib.Path,
                   tally: Tally) -> dict:
    """Traced process next to an untraced cold run, while they fit in *seconds*."""
    deadline = time.perf_counter() + seconds
    samples: dict[str, list[float]] = {}
    rep_s = 0.0
    rep = 0
    while rep < 1 or time.perf_counter() + rep_s < deadline:
        t0 = time.perf_counter()
        rep_dir = tmp / f"rep{rep}"
        (rep_dir / "cold").mkdir(parents=True)
        cold = spawn(cli_args(cfg, rep_dir / "cache", rep_dir / "cold"), rep_dir / "cold",
                     rep_dir / "cold" / "stderr.txt")
        why = (f"exit {cold['code']}" if cold["code"] != 0
               else check_manifest(rep_dir / "cold" / "manifest.json", want, False))
        cold_ok = tally.record(why is None, f"untraced cold run {rep}: {why}")

        out, result, why = run_traced(cfg, rep_dir / "traced")
        if result is not None:
            if result["cold_digest"] != want or result["warm_digest"] != want:
                why = "traced result digest differs from the reference"
            elif result["warm_misses"]:
                why = f"traced warm leg missed the cache {result['warm_misses']} times"
        if tally.record(why is None, f"traced run {rep}: {why}") and cold_ok:
            layers = result["layers"]
            traced_s = result["cold_end_epoch"] - out["start_epoch"]
            layers["run.traced_s"] = traced_s
            layers["run.unattributed_s"] = traced_s - sum(layers[k] for k in TOP_LAYERS)
            layers["trace.overhead_ratio"] = traced_s / cold["wall"]
            for key, value in layers.items():
                samples.setdefault(key, []).append(value)
        shutil.rmtree(rep_dir)
        rep_s = time.perf_counter() - t0
        rep += 1
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    cfg = workload_config(name, seed, smoke)
    want = reference_digest(references(), cfg)
    tally = Tally()
    with scratch_dir(f"{name}-") as tmp:
        measure = measure_traced if trace else measure_untraced
        samples = measure(cfg, want, seconds, tmp, tally)
    missing = [k for k in units if not samples.get(k)]
    if missing:
        raise BenchError(f"{name}: no successful sample for {missing}: {tally.failures}")
    if trace:
        # Every layer from one repetition, the one with the median traced
        # time, so the layers still add up to run.traced_s.
        totals = samples["run.traced_s"]
        pick = sorted(range(len(totals)), key=totals.__getitem__)[(len(totals) - 1) // 2]
        values = {k: samples[k][pick] for k in units}
        how = "from the median repetition of"
    else:
        values = {k: statistics.median(samples[k]) for k in units}
        how = "median of"
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"workload {name} (scenario {cfg['scenario']}, {cfg['n_instances']} instances, "
          f"scenario seed {cfg['seed']}, jobs {cfg['jobs']}, objective {cfg['objective']})")
    for key in units:
        got = samples[key]
        print(f"  {key:28s} {values[key]:14.6g} {units[key]:6s} "
              f"{how} n={len(got)}  [min {min(got):.6g}, max {max(got):.6g}]")
    print(f"  {'failed_frac':28s} {len(tally.failures) / tally.attempted:14.6g} "
          f"{'ratio':6s} {len(tally.failures)} of {tally.attempted} invocations")
    if trace:
        rows = values["rowsolve.wall_s"]
        split = {
            "import": values["import.cli_s"] + values["import.command_s"],
            "grid": values["grid.cold_s"],
            "kernel": values["kernel.s"],
            "rowsolve": rows,
            "rest of sweep": values["sweep.cold_s"] - values["kernel.s"] - rows,
            "unattributed": values["run.unattributed_s"],
        }
        top = max(split, key=split.get)
        print(f"  largest layer of the cold run: {top} ({split[top]:.3f} s of "
              f"{values['run.traced_s']:.3f} s traced)")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }


def smoke(seconds: float) -> int:
    """Tiny-size run of every workload, both modes; checks metric names,
    units and that the traced layers add up to the traced total."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, 0, seconds, trace, smoke=True)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: incorrect result")
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing or wrong unit")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{name}: {metric['name']} is not finite")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                total = sum(m[k] for k in TOP_LAYERS) + m["run.unattributed_s"]
                if not math.isclose(total, m["run.traced_s"], rel_tol=1e-9, abs_tol=1e-9):
                    problems.append(f"{name}: layers sum to {total}, traced {m['run.traced_s']}")
                if m["run.unattributed_s"] < 0:
                    problems.append(f"{name}: negative unattributed time")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def record_references(sizes: "list[str]") -> int:
    """Rewrite refs.json with the digests the current code produces."""
    refs = references() if (HERE / "refs.json").exists() else {}
    with scratch_dir("refs-") as tmp:
        for name in WORKLOADS:
            for size in sizes:
                for seed in range(N_REF_SEEDS):
                    cfg = workload_config(name, seed, size == "smoke")
                    work = tmp / f"{name}-{cfg['n_instances']}-{seed}"
                    _, result, why = run_traced(cfg, work)
                    if result is not None and result["cold_digest"] != result["warm_digest"]:
                        why = "cold and warm digests differ"
                    if why is not None:
                        raise BenchError(f"reference run {name} seed {seed} failed: {why}")
                    refs.setdefault(name, {}).setdefault(
                        str(cfg["n_instances"]), {})[str(seed)] = result["cold_digest"]
                    print(name, cfg["n_instances"], seed, result["cold_digest"][:12], flush=True)
                    shutil.rmtree(work)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; selects scenario seed SEED %% 32 (default 0)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measuring time per run (default 60)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced per-layer run instead of the end-to-end one")
    parser.add_argument("--smoke", action="store_true",
                        help="self-check every workload at a tiny instance count")
    parser.add_argument("--record-refs", nargs="+", choices=("full", "smoke"),
                        metavar="SIZE", help="rewrite refs.json from the current code "
                        "for the given sizes (full, smoke)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so children are killed and reaped and
    # scratch files removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.record_refs:
            return record_references(args.record_refs)
        if args.smoke:
            return smoke(min(args.seconds, 1.0))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
