"""Out-of-contract bounds and floors fail at every public solver's
boundary with a ``ValueError`` that names the argument."""

import json
import math

import pytest

from repro.algorithms.brute_force import brute_force_best
from repro.algorithms.dp_period import minimize_period, optimize_reliability_period
from repro.algorithms.heuristics import heuristic_best
from repro.algorithms.ilp_mapping import ilp_best
from repro.algorithms.pareto_dp import minimize_latency, pareto_dp_best
from repro.core import Platform, TaskChain
from repro.extensions.annealing import anneal_mapping
from repro.extensions.energy import minimize_energy
from repro.extensions.latency_search import minimize_latency_search
from repro.extensions.period_search import minimize_period_search

BOUNDS = ("max_period", "max_latency")
FLOOR = ("min_log_reliability",)

#: solver -> the contract arguments it takes.
SOLVERS = {
    ilp_best: BOUNDS,
    anneal_mapping: BOUNDS,
    minimize_energy: BOUNDS + FLOOR,
    minimize_period_search: BOUNDS + FLOOR,
    minimize_latency_search: BOUNDS + FLOOR,
    heuristic_best: BOUNDS + FLOOR,
    brute_force_best: BOUNDS + FLOOR,
    optimize_reliability_period: ("max_period",),
    pareto_dp_best: BOUNDS,
    minimize_latency: BOUNDS + FLOOR,
    minimize_period: BOUNDS + FLOOR,
}

CASES = [
    pytest.param(solver, arg, value, id=f"{solver.__name__}-{arg}={value}")
    for solver, args in SOLVERS.items()
    for arg in args
    for value in ((math.nan, 0.5) if arg in FLOOR else (math.nan, 0.0, -1.0))
]


@pytest.fixture(scope="module")
def instance():
    chain = TaskChain([6.0, 6.0, 4.0], [1.0, 2.0, 0.0])
    platform = Platform.homogeneous_platform(4, failure_rate=1e-4, max_replication=2)
    return chain, platform


@pytest.mark.parametrize("solver,arg,value", CASES)
def test_out_of_contract_argument_rejected(instance, solver, arg, value):
    chain, platform = instance
    with pytest.raises(ValueError, match=arg):
        solver(chain, platform, **{arg: value})



#: Out-of-contract scenario-spec fields: (field, JSON value, message).
SPEC_CASES = [
    ("proc_failure", {"kind": "constant", "value": -1}, "proc_failure values must be >= 0"),
    ("work", {"kind": "uniform", "low": -5, "high": 1}, "work values must be > 0"),
    ("work", {"kind": "uniform", "low": 0.5, "high": 9, "integral": True},
     "work values must be > 0"),
    ("speed", {"kind": "lognormal", "mean": 1.0, "sigma": 1.0, "high": 0.0},
     "speed values must be > 0"),
    ("output", {"kind": "correlated", "low": -1.0, "high": 10.0}, "output values must be >= 0"),
    ("bandwidth", 0, "bandwidth must be > 0"),
    ("bandwidth", -1, "bandwidth must be > 0"),
    ("bandwidth", [1.0, 0.0], "bandwidth must be > 0"),
]


@pytest.mark.parametrize(
    "field,value,message", SPEC_CASES, ids=[f"{f}={v}" for f, v, _ in SPEC_CASES]
)
def test_out_of_domain_spec_fails_at_load(tmp_path, field, value, message):
    """A spec whose fields can draw out-of-contract values (a negative
    failure rate, non-positive work or speed, a zero bandwidth) is
    refused when it loads, with one message per rule, instead of
    failing later in generation."""
    from repro.cli import main
    from repro.scenarios import get_scenario

    payload = get_scenario("section8-hom").spec.to_dict()
    payload[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "run", str(path), "--n-instances", "2"])
    assert exc.value.code.startswith(f"cannot load scenario spec {path}: ")
    assert message in exc.value.code


def test_in_domain_specs_load():
    """Every registered scenario's distributions stay inside their
    fields' domains, so each still loads."""
    from repro.scenarios import SCENARIOS, spec_from_dict

    for entry in SCENARIOS.values():
        assert spec_from_dict(entry.spec.to_dict()) == entry.spec
