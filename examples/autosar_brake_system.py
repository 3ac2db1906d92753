#!/usr/bin/env python3
"""An Autosar-style automotive function (the paper's motivating example).

Section 1 motivates the model with the Autosar architecture: ECUs on a
bus running pipelined functions "from the sensor to the actuator", each
with an end-to-end latency bound, a period, and a reliability
requirement.  This example models an anti-lock-brake-style function:

    wheel-speed acquisition -> filtering -> slip estimation ->
    control law -> arbitration -> hydraulic pressure actuation

on a 6-ECU platform, and asks the library for the most reliable
deployment meeting a 10 ms period (100 Hz control) and a 25 ms
end-to-end deadline, under a 1e-9-per-hour certification target.

Time unit: 1 ms.  Failure rates: ~1e-6/hour transient faults per ECU
(a conservative automotive figure) = 2.8e-13 per ms; the CAN-FD style
bus is noisier, 1e-4/hour = 2.8e-11 per ms.

Run:  python examples/autosar_brake_system.py
"""

from repro import Platform, TaskChain, heuristic_best, pareto_dp_best

# Work in ms-on-a-reference-ECU; output sizes in bus-time ms.
TASKS = [
    ("wheel-speed acquisition", 1.2, 0.4),
    ("signal filtering", 2.5, 0.4),
    ("slip estimation", 3.0, 0.6),
    ("control law", 2.2, 0.5),
    ("torque arbitration", 1.5, 0.3),
    ("pressure actuation", 0.8, 0.0),  # actuator driver: o_n = 0
]

chain = TaskChain(
    work=[w for _, w, _ in TASKS],
    output=[o for _, _, o in TASKS],
)

ECU_RATE_PER_MS = 1e-6 / 3.6e6  # 1e-6 per hour
BUS_RATE_PER_MS = 1e-4 / 3.6e6

platform = Platform.homogeneous_platform(
    6,
    speed=1.0,
    failure_rate=ECU_RATE_PER_MS,
    bandwidth=1.0,
    link_failure_rate=BUS_RATE_PER_MS,
    max_replication=3,
)

PERIOD_MS = 10.0
DEADLINE_MS = 25.0
# Certification target: < 1e-9 failures per hour of operation.  At 100
# executions per second, that is 3.6e5 data sets per hour, so the
# per-data-set failure probability must stay below:
TARGET_PER_DATASET = 1e-9 / (3600.0 * 1000.0 / PERIOD_MS)

print("Autosar-style brake function")
print("-" * 64)
for (name, w, o), _ in zip(TASKS, range(len(TASKS))):
    print(f"  {name:26s}  work {w:4.1f} ms   output {o:3.1f} ms")
print(f"\nbounds: period <= {PERIOD_MS} ms, end-to-end <= {DEADLINE_MS} ms")
print(f"per-data-set failure target: {TARGET_PER_DATASET:.2e}\n")

# Exact tri-criteria optimum.
exact = pareto_dp_best(chain, platform, max_period=PERIOD_MS, max_latency=DEADLINE_MS)
heur = heuristic_best(chain, platform, max_period=PERIOD_MS, max_latency=DEADLINE_MS)

for name, res in (("exact (Pareto DP)", exact), ("heuristics", heur)):
    if not res.feasible:
        print(f"{name}: no deployment meets the bounds")
        continue
    ev = res.evaluation
    print(f"{name}:")
    for j, (iv, procs) in enumerate(res.mapping):
        stage = ", ".join(TASKS[t][0] for t in iv.tasks)
        print(f"  stage {j}: ECUs {list(procs)} <- {stage}")
    print(f"  failure probability per data set: {ev.failure_probability:.3e}")
    print(f"  worst-case period:  {ev.worst_case_period:5.2f} ms")
    print(f"  worst-case latency: {ev.worst_case_latency:5.2f} ms")
    verdict = "MEETS" if ev.failure_probability <= TARGET_PER_DATASET else "MISSES"
    print(f"  certification target: {verdict} ({TARGET_PER_DATASET:.2e})\n")

# How much does replication buy?  Compare to the best single-replica
# deployment (max_replication = 1).
bare = Platform.homogeneous_platform(
    6,
    speed=1.0,
    failure_rate=ECU_RATE_PER_MS,
    bandwidth=1.0,
    link_failure_rate=BUS_RATE_PER_MS,
    max_replication=1,
)
no_rep = pareto_dp_best(chain, bare, max_period=PERIOD_MS, max_latency=DEADLINE_MS)
if no_rep.feasible and exact.feasible:
    gain = no_rep.evaluation.failure_probability / exact.evaluation.failure_probability
    print(
        f"replication reduces the failure probability by a factor {gain:.1e} "
        f"({no_rep.evaluation.failure_probability:.2e} -> "
        f"{exact.evaluation.failure_probability:.2e})"
    )
