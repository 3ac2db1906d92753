"""The import boundary: a command loads only the modules it runs.

``import repro.cli`` loads no numpy: every package serves its public
names lazily (PEP 562, :mod:`repro._lazy`) and each CLI command imports
its own modules.  scipy backs only the Section 5.4 ILP solvers
(``ilp``, ``ilp-bb``) and networkx only the RBD layer behind the
cross-check, the no-routing study and the simulator, so a cold
Section 8 ``scenario run`` loads neither, and a serial one starts no
process-pool machinery.  Each process-level check runs in a fresh
interpreter, since this test process has long since imported
everything.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.analysis.imports import LAZY_NAMES, is_heavy

HEAVY = ("scipy", "networkx")
PKG_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)

#: Every package whose public names load through repro._lazy.
LAZY_PACKAGES = (
    "repro",
    "repro.algorithms",
    "repro.core",
    "repro.experiments",
    "repro.extensions",
    "repro.ilp",
    "repro.solve",
)

# Appended to every script: report the modules the process loaded, as
# the last line of stdout.
_REPORT = (
    "\nimport json as _json, sys as _sys\n"
    "print(_json.dumps(sorted(_sys.modules)))\n"
)


def run_fresh(args: list, cwd: "pathlib.Path | None" = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
    )


def loaded_modules(script: str, cwd: "pathlib.Path | None" = None) -> "set[str]":
    """Run *script* in a fresh interpreter; every module it loaded."""
    out = run_fresh(["-c", script + _REPORT], cwd=cwd)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def heavy_loaded(script: str, cwd: "pathlib.Path | None" = None) -> list:
    """Run *script* in a fresh interpreter; the heavy packages it loaded."""
    return sorted(set(HEAVY) & loaded_modules(script, cwd))


def test_cli_import_loads_no_numpy():
    loaded = loaded_modules("import repro.cli")
    assert "numpy" not in loaded
    assert len({m for m in loaded if m.split(".")[0] == "repro"}) <= 3, sorted(loaded)


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_cli_runs_without_numpy(flag):
    script = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None  # any numpy import now raises\n"
        f"sys.argv = ['repro', {flag!r}]\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )
    out = run_fresh(["-c", script])
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("repro " if flag == "--version" else "usage: repro")


def test_cache_module_loads_no_numpy(tmp_path):
    """The cache module, and counting and vacuuming a cache directory,
    need no numpy: only decoding a unit's arrays loads it."""
    assert "numpy" not in loaded_modules("import repro.experiments.cache")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"{'ab' * 32}.json").write_text("{half")
    (cache / "orphan.tmp").write_text("")
    script = (
        "from repro.cli import main\n"
        "assert main(['cache', 'vacuum', '--cache-dir', 'cache']) == 0\n"
        "assert main(['cache', 'stats', '--cache-dir', 'cache']) == 0\n"
    )
    assert "numpy" not in loaded_modules(script, cwd=tmp_path)
    assert not list(cache.iterdir())


def test_obs_import_loads_no_numpy():
    """The run ledger and telemetry hash and write plain JSON."""
    loaded = loaded_modules("import repro.obs")
    assert "numpy" not in loaded
    assert {"repro.obs.ledger", "repro.obs.telemetry"} <= loaded


def test_cli_import_loads_neither():
    assert heavy_loaded("import repro.cli") == []


def test_package_imports_load_neither():
    script = "import repro, repro.ilp, repro.ilp.model, repro.experiments, repro.extensions"
    assert heavy_loaded(script) == []


@pytest.fixture(scope="module")
def cold_serial_run(tmp_path_factory):
    """A cold serial Section 8 ``scenario run`` in a fresh interpreter:
    the modules it loaded and its manifest."""
    cwd = tmp_path_factory.mktemp("cold-serial")
    script = (
        "from repro.cli import main\n"
        "rc = main(['scenario', 'run', 'section8-hom', '--n-instances', '2',\n"
        "           '--grid', 'auto', '--jobs', '1', '--cache-dir', 'cache',\n"
        "           '--runs-dir', 'runs', '--manifest', 'manifest.json'])\n"
        "assert rc == 0, rc\n"
    )
    loaded = loaded_modules(script, cwd=cwd)
    return loaded, json.loads((cwd / "manifest.json").read_text())


def test_cold_section8_scenario_run_loads_neither(cold_serial_run):
    loaded, manifest = cold_serial_run
    assert set(HEAVY) & loaded == set()
    assert manifest["cache"]["hits"] == 0  # cold: every unit was solved


def test_serial_scenario_run_starts_no_pool_machinery(cold_serial_run):
    loaded, _ = cold_serial_run
    assert "concurrent.futures.process" not in loaded
    assert "multiprocessing" not in loaded


#: The batched kernels and the per-row solvers a Section 8 plan runs.
KERNELS = tuple(
    f"repro.algorithms.{name}"
    for name in (
        "batch", "batch_dp", "batch_search", "_hom_dp", "pareto_dp", "heuristics",
        "allocation",
    )
)


#: A Section 8 ``scenario run`` with a cache directory, in the cwd.
WARM_SCRIPT = (
    "from repro.cli import main\n"
    "rc = main(['scenario', 'run', 'section8-hom', '--n-instances', '3',\n"
    "           '--grid', 'auto', '--cache-dir', 'cache',\n"
    "           '--runs-dir', 'runs', '--manifest', 'manifest.json'])\n"
    "assert rc == 0, rc\n"
)


def delete_run_records(cache: pathlib.Path) -> None:
    """Drop the run records, so the next identical run is a unit-level
    warm run instead of a replay."""
    for record in cache.glob("*.run"):
        record.unlink()


def test_warm_scenario_run_loads_no_kernel(tmp_path):
    """A ``scenario run`` served entirely from cache loads no solver:
    cache keys fingerprint the solvers' source without importing it."""
    script = WARM_SCRIPT
    cold = loaded_modules(script, cwd=tmp_path)
    assert {"repro.algorithms.batch", "repro.algorithms.batch_dp"} <= cold  # it solved
    delete_run_records(tmp_path / "cache")
    warm = loaded_modules(script, cwd=tmp_path)
    cache = json.loads((tmp_path / "manifest.json").read_text())["cache"]
    assert cache["misses"] == 0 and cache["hits"] > 0, cache
    assert sorted(set(KERNELS) & warm) == []
    assert sorted(set(UNUSED_BY_SCENARIO_RUNS) & warm) == []


def test_replayed_scenario_run_loads_no_numpy(tmp_path):
    """A repeated ``scenario run`` replays its run record: it loads no
    numpy and no planner, generator, harness or cache module, and
    reports the series of the run it replays."""
    loaded_modules(WARM_SCRIPT, cwd=tmp_path)
    cold = json.loads((tmp_path / "manifest.json").read_text())
    replayed = loaded_modules(WARM_SCRIPT, cwd=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "numpy" not in replayed
    assert not {m for m in replayed if m.startswith("repro.scenarios")}
    assert not {
        "repro.solve.planner", "repro.solve.grid",
        "repro.experiments.harness", "repro.experiments.cache",
    } & replayed
    assert manifest["cache"]["replayed_from"] == cold["run_id"]
    assert manifest["series"] == cold["series"]


#: Modules no ``scenario run`` needs: ``numpy.ma`` (which ``np.quantile``
#: and ``np.unique`` on floats import on first call) and the paper-figure
#: runner.
UNUSED_BY_SCENARIO_RUNS = ("numpy.ma", "repro.experiments.figures")


@pytest.fixture(scope="module")
def cold_het_run(tmp_path_factory):
    """A cold paired (Section 8.2) ``scenario run`` with a derived grid
    in a fresh interpreter: the modules it loaded."""
    script = (
        "from repro.cli import main\n"
        "rc = main(['scenario', 'run', 'section8-het', '--n-instances', '3',\n"
        "           '--grid', 'auto', '--cache-dir', 'cache',\n"
        "           '--runs-dir', 'runs', '--manifest', 'manifest.json'])\n"
        "assert rc == 0, rc\n"
    )
    loaded = loaded_modules(script, cwd=tmp_path_factory.mktemp("cold-het"))
    assert "repro.algorithms.batch" in loaded  # it solved
    return loaded


def test_cold_het_grid_run_loads_no_masked_arrays_or_figures(cold_het_run):
    """The grid's quantiles, the achieved-objective quantiles, the
    paired ensemble's common-rate check and the curve tables load
    neither module."""
    assert sorted(set(UNUSED_BY_SCENARIO_RUNS) & cold_het_run) == []


#: The scalar Section 7 heuristics and their allocations: the kernels
#: serve every Section 8 unit, so no cold run needs them.
SCALAR_HEURISTICS = ("repro.algorithms.heuristics", "repro.algorithms.allocation")


def test_cold_section8_runs_load_no_scalar_heuristics(cold_serial_run, cold_het_run):
    hom_loaded, _ = cold_serial_run
    assert "repro.algorithms.batch_dp" in hom_loaded  # pareto-dp's kernel ran
    assert sorted(set(SCALAR_HEURISTICS) & hom_loaded) == []
    assert sorted(set(SCALAR_HEURISTICS) & cold_het_run) == []


def test_pool_run_matches_serial_run(tmp_path, monkeypatch):
    """energy-greedy has no kernel, so --jobs 2 solves its units in
    pool workers; the series must equal the serial run's."""
    from repro.cli import main

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    series = {}
    for jobs in (1, 2):
        manifest_path = tmp_path / f"manifest{jobs}.json"
        runs = tmp_path / f"runs{jobs}"
        rc = main([
            "scenario", "run", "section8-hom", "--objective", "energy",
            "--n-instances", "2", "--jobs", str(jobs),
            "--runs-dir", str(runs), "--manifest", str(manifest_path),
        ])
        assert rc == 0
        manifest = json.loads(manifest_path.read_text())
        per_unit = (runs / manifest["run_id"] / "per_unit.jsonl").read_text().splitlines()
        sources = {json.loads(line)["source"] for line in per_unit}
        assert sources == ({"parent"} if jobs == 1 else {"worker"})
        series[jobs] = manifest["series"]
    assert series[1] == series[2]


@pytest.mark.parametrize(
    "access, loaded",
    [
        ("repro.ilp.solve_with_scipy", ["scipy"]),
        ("repro.ilp.solve_with_branch_bound", ["scipy"]),
        ("repro.experiments.run_crosscheck", ["networkx"]),
        ("repro.extensions.compare_routing", ["networkx"]),
    ],
)
def test_lazy_name_loads_its_package_on_first_access(access, loaded):
    pkg, _, name = access.rpartition(".")
    script = f"import {pkg}\nassert callable({pkg}.{name})\n"
    assert heavy_loaded(script) == loaded


def test_ilp_solves_load_scipy_only_when_called():
    script = (
        "import sys\n"
        "from repro import Platform, Problem, TaskChain\n"
        "from repro.solve import solve\n"
        "import repro.experiments.methods\n"
        "assert 'scipy' not in sys.modules\n"
        "chain = TaskChain([6.0, 6.0], [4.0, 0.0])\n"
        "plat = Platform.homogeneous_platform(4, failure_rate=1e-6, max_replication=2)\n"
        "res = solve(Problem(chain, plat, max_period=7.0, max_latency=17.0), method='ilp')\n"
        "assert res.mapping.m == 2, res\n"
        "assert 'scipy' in sys.modules\n"
    )
    assert heavy_loaded(script) == ["scipy"]


def test_public_names_resolve():
    import repro.experiments
    import repro.extensions
    import repro.ilp

    assert callable(repro.ilp_best)
    assert callable(repro.ilp.solve_with_scipy)
    assert callable(repro.ilp.solve_with_branch_bound)
    assert callable(repro.experiments.run_crosscheck)
    assert repro.experiments.CrosscheckReport.__name__ == "CrosscheckReport"
    assert callable(repro.extensions.compare_routing)
    assert repro.extensions.RoutingComparison.__name__ == "RoutingComparison"
    from repro.experiments import run_crosscheck
    from repro.ilp import solve_with_scipy

    assert run_crosscheck is repro.experiments.crosscheck.run_crosscheck
    assert solve_with_scipy is repro.ilp.scipy_backend.solve_with_scipy


def test_lazy_packages_list_is_complete():
    """LAZY_PACKAGES names exactly the packages built on repro._lazy,
    IMP001's lazy-name catalog among them."""
    src = pathlib.Path(repro.__file__).parent
    users = {
        ".".join(("repro", *init.parent.relative_to(src).parts))
        for init in src.rglob("__init__.py")
        if "lazy_exports(globals()" in init.read_text()
    }
    assert users == set(LAZY_PACKAGES)
    assert set(LAZY_NAMES) <= users


def test_package_imports_bind_no_lazy_name():
    """A fresh ``import pkg`` binds none of its served names: each one
    loads its module only on first access."""
    script = (
        f"import importlib\n"
        f"for pkg in {LAZY_PACKAGES!r}:\n"
        "    module = importlib.import_module(pkg)\n"
        "    bound = set(module._LAZY) & set(vars(module))\n"
        "    assert not bound, (pkg, sorted(bound))\n"
    )
    assert "numpy" not in loaded_modules(script)


@pytest.mark.parametrize("pkg", LAZY_PACKAGES)
def test_star_import_binds_all_names(pkg):
    namespace: dict = {}
    exec(f"from {pkg} import *", namespace)
    module = sys.modules[pkg]
    assert set(module.__all__) <= set(namespace)
    for name in module._LAZY:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("pkg", LAZY_PACKAGES)
def test_lint_catalog_matches_lazy_names(pkg):
    """IMP001's lazy-name table lists exactly the names each package
    serves from a heavy (scipy/networkx) module."""
    module = importlib.import_module(pkg)
    heavy = {name for name, target in module._LAZY.items() if is_heavy(target)}
    assert heavy == set(LAZY_NAMES.get(pkg, ()))


@pytest.mark.parametrize("pkg", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(pkg):
    module = importlib.import_module(pkg)
    with pytest.raises(AttributeError, match=rf"^module '{pkg}' has no attribute 'nope'$"):
        _ = module.nope
    assert not hasattr(module, "solve_with_cplex")


@pytest.mark.parametrize("pkg", LAZY_PACKAGES)
def test_dir_lists_every_public_name(pkg):
    module = importlib.import_module(pkg)
    listing = dir(module)
    assert listing == sorted(listing)
    assert set(module.__all__) | {"__name__", "__getattr__"} <= set(listing)


@pytest.mark.parametrize("pkg", LAZY_PACKAGES)
def test_lazy_names_resolve_to_their_defining_module(pkg):
    module = importlib.import_module(pkg)
    assert set(module._LAZY) <= set(module.__all__)
    assert all(hasattr(module, name) for name in module.__all__)
    for name, target in module._LAZY.items():
        assert getattr(module, name) is getattr(importlib.import_module(target), name)
    # A served name equal to a submodule's would be shadowed by the
    # submodule once something imports it.
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert not submodules & set(module._LAZY)


@pytest.mark.parametrize("method", ["ilp", "ilp-bb"])
def test_ilp_methods_match_exact_dp(method):
    """Both ILP backends still find the Pareto DP's optimum."""
    from repro.core import random_chain
    from repro.core.platform import Platform
    from repro.solve import Problem, solve

    chain = random_chain(5, rng=3)
    plat = Platform.homogeneous_platform(
        5, failure_rate=1e-4, link_failure_rate=1e-3, max_replication=2
    )
    # A period-bound optimum, an infeasible point and a latency-bound one.
    points = [(90.0, 200.0, True), (60.0, 300.0, False), (1e9, 160.0, True)]
    for max_period, max_latency, feasible in points:
        problem = Problem(chain, plat, max_period=max_period, max_latency=max_latency)
        got = solve(problem, method=method)
        want = solve(problem, method="pareto-dp")
        assert got.feasible == want.feasible == feasible
        assert got.failure_probability == pytest.approx(
            want.failure_probability, rel=1e-9
        )
