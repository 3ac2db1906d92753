#!/usr/bin/env python3
"""Tri-criteria trade-off exploration on a heterogeneous platform.

Sweeps the period bound for a fixed latency bound on a 12-processor
heterogeneous platform (Section 8.2 style), showing how the Section 7
heuristics trade reliability against the real-time constraints, and —
using the Section 9 energy extension — what each schedule costs in
energy, exposing the reliability/energy tension of replication.

Run:  python examples/heterogeneous_tradeoff.py
"""

import numpy as np

from repro import Platform, heuristic_best, random_chain
from repro.algorithms.heuristics import heur_p_intervals
from repro.extensions import energy_aware_alloc_het, mapping_energy
from repro.core.evaluation import evaluate_mapping

rng = np.random.default_rng(2026)
chain = random_chain(12, rng, work_range=(10, 80), output_range=(1, 8))
platform = Platform(
    speeds=rng.integers(2, 40, size=12).astype(float),
    failure_rates=[1e-7] * 12,
    bandwidth=1.0,
    link_failure_rate=1e-5,
    max_replication=3,
)

LATENCY = 120.0

print(f"chain: {chain}")
print(f"platform speeds: {sorted(platform.speeds.tolist())}")
print(f"latency bound: {LATENCY}\n")

print("period   feasible  failure-prob   WL      m  replicas  energy")
print("-" * 66)
for period in (10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 90.0):
    res = heuristic_best(chain, platform, max_period=period, max_latency=LATENCY)
    if not res.feasible:
        print(f"{period:6.1f}   no")
        continue
    ev = res.evaluation
    energy = mapping_energy(res.mapping, alpha=2.0)
    print(
        f"{period:6.1f}   yes       {ev.failure_probability:.3e}   "
        f"{ev.worst_case_latency:6.1f}  {res.mapping.m}  "
        f"{res.mapping.processors_used:8d}  {energy:8.0f}"
    )

# ---------------------------------------------------------------------------
# Energy-bounded allocation: fix the division Heur-P picks for m = 4 and
# sweep the energy budget, showing the reliability/energy Pareto front.
# ---------------------------------------------------------------------------
partition = heur_p_intervals(chain, 4)
unlimited = energy_aware_alloc_het(chain, platform, partition, alpha=2.0)
assert unlimited is not None
full_energy = mapping_energy(unlimited, alpha=2.0)

print("\nenergy budget sweep (fixed Heur-P division into 4 intervals):")
print("budget(frac)  replicas  failure-prob")
print("-" * 40)
for frac in (0.4, 0.55, 0.7, 0.85, 1.0):
    m = energy_aware_alloc_het(
        chain, platform, partition, max_energy=full_energy * frac, alpha=2.0
    )
    if m is None:
        print(f"{frac:11.2f}   infeasible")
        continue
    ev = evaluate_mapping(m)
    print(f"{frac:11.2f}   {m.processors_used:8d}  {ev.failure_probability:.3e}")
