"""The import boundary: scipy and networkx load only on the paths that use them.

scipy backs only the Section 5.4 ILP solvers (``ilp``, ``ilp-bb``) and
networkx only the RBD layer behind the cross-check, the no-routing
study and the simulator.  ``import repro.cli`` and a cold Section 8
``scenario run`` must load neither; the public names that live in
heavy modules stay importable through PEP 562 ``__getattr__`` hooks.
Each process-level check runs in a fresh interpreter, since this test
process has long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis.imports import LAZY_NAMES

HEAVY = ("scipy", "networkx")
PKG_ROOT = str(pathlib.Path(repro.__file__).resolve().parent.parent)

# Appended to every script: report which heavy packages the process
# loaded, as the last line of stdout.
_REPORT = (
    "\nimport json as _json, sys as _sys\n"
    f"print(_json.dumps(sorted(set({HEAVY!r}) & set(_sys.modules))))\n"
)


def heavy_loaded(script: str, cwd: "pathlib.Path | None" = None) -> list:
    """Run *script* in a fresh interpreter; the heavy packages it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script + _REPORT],
        capture_output=True, text=True, check=True, env=env, cwd=cwd,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_import_loads_neither():
    assert heavy_loaded("import repro.cli") == []


def test_package_imports_load_neither():
    script = "import repro, repro.ilp, repro.ilp.model, repro.experiments, repro.extensions"
    assert heavy_loaded(script) == []


def test_cold_section8_scenario_run_loads_neither(tmp_path):
    script = (
        "from repro.cli import main\n"
        "rc = main(['scenario', 'run', 'section8-hom', '--n-instances', '2',\n"
        "           '--grid', 'auto', '--cache-dir', 'cache', '--runs-dir', 'runs',\n"
        "           '--manifest', 'manifest.json'])\n"
        "assert rc == 0, rc\n"
    )
    assert heavy_loaded(script, cwd=tmp_path) == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["cache"]["hits"] == 0  # cold: every unit was solved


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


@pytest.mark.parametrize("pkg", sorted(LAZY_NAMES))
def test_star_import_binds_all_names(pkg):
    namespace: dict = {}
    exec(f"from {pkg} import *", namespace)
    module = sys.modules[pkg]
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("pkg", sorted(LAZY_NAMES))
def test_lint_catalog_matches_lazy_names(pkg):
    """IMP001's lazy-name table lists exactly the names each package
    serves through ``__getattr__`` rather than binding at import."""
    module = __import__(pkg, fromlist=["__all__"])
    assert set(module.__all__) - set(vars(module)) == set(LAZY_NAMES[pkg])


@pytest.mark.parametrize("pkg", sorted(LAZY_NAMES))
def test_unknown_attribute_raises_attribute_error(pkg):
    module = __import__(pkg, fromlist=["__all__"])
    with pytest.raises(AttributeError, match=rf"^module '{pkg}' has no attribute 'nope'$"):
        _ = module.nope
    assert not hasattr(module, "solve_with_cplex")


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
