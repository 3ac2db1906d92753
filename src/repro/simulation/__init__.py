"""Discrete-event simulation of pipelined execution with transient faults.

The paper evaluates reliability, latency, and period *analytically*
(Eqs. (3), (5)-(9)); this subpackage provides the executable
counterpart: a discrete-event simulator that runs a mapping over a
stream of data sets (data set ``K`` enters at time ``K * P``, Section 1)
on fail-silent processors and links whose transient faults follow the
Shatz-Wang model, with replica fan-out and routing-operation semantics
(Figure 5).  Monte Carlo aggregation then validates the closed forms —
the closest executable stand-in for the real failure-prone platforms
the model abstracts, which a reproduction without the paper's hardware
cannot run on.

Layers:

* :mod:`repro.simulation.events` — event records and the deterministic
  priority queue;
* :mod:`repro.simulation.engine` — the generic event loop;
* :mod:`repro.simulation.faults` — fault injectors (per-operation
  Bernoulli, and an explicit Poisson-arrival sampler; the two are
  distributionally identical for fail-silent operations, which a test
  verifies);
* :mod:`repro.simulation.pipeline` — the pipelined-execution model;
* :mod:`repro.simulation.montecarlo` — aggregation and
  analytical-vs-simulated validation helpers.
"""

from repro.simulation.engine import Engine
from repro.simulation.faults import BernoulliFaults, PoissonFaults, NoFaults
from repro.simulation.pipeline import PipelineSimulator, SimulationRun
from repro.simulation.montecarlo import (
    SimulationSummary,
    simulate_mapping,
    validate_against_analytical,
)

__all__ = [
    "Engine",
    "BernoulliFaults",
    "PoissonFaults",
    "NoFaults",
    "PipelineSimulator",
    "SimulationRun",
    "SimulationSummary",
    "simulate_mapping",
    "validate_against_analytical",
]
