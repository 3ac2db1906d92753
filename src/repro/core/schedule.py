"""Static periodic schedules and the Section 1 deadline model.

The paper's real-time constraint: data sets enter the system with period
``P``; data set ``K`` enters at time ``K * P`` and has deadline
``K * P + L``.  "The deadline of each data set will be met as soon as we
derive a schedule whose period does not exceed P and whose latency does
not exceed L."  This module makes that claim concrete: it builds the
canonical static schedule of a mapping — every replica of interval ``j``
starts data set ``K`` at offset ``S_j + K * P`` where

    ``S_j = sum_{i < j} (wc_i + o_i / b)``

(worst-case stage offsets, so the schedule is valid whatever subset of
replicas fail) — validates it (no processor overlap, deadlines met), and
renders an ASCII Gantt chart.  A test cross-checks the claim against the
discrete-event simulator: in a fault-free run every completion time is
bounded by the static schedule's.

Periods below ``WP`` (Eq. (8)) are rejected: some replica would still be
busy with data set ``K`` when ``K + 1`` arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.evaluation import evaluate_mapping
from repro.core.mapping import Mapping

__all__ = ["StaticSchedule", "build_schedule"]


@dataclass(frozen=True)
class StaticSchedule:
    """The canonical periodic schedule of a mapping.

    Attributes
    ----------
    mapping:
        The scheduled mapping.
    period:
        Injection period ``P`` (>= the mapping's worst-case period).
    stage_offsets:
        ``S_j`` — the time at which stage ``j`` of data set 0 starts
        (every replica starts together; incoming data is available).
    stage_durations:
        Worst-case computation time ``wc_j`` per stage.
    comm_times:
        Outgoing communication time ``o_{l_j} / b`` per stage.
    """

    mapping: Mapping
    period: float
    stage_offsets: tuple[float, ...]
    stage_durations: tuple[float, ...]
    comm_times: tuple[float, ...]

    @property
    def latency(self) -> float:
        """Completion offset of any data set — equals ``WL`` (Eq. (7))."""
        return self.stage_offsets[-1] + self.stage_durations[-1] + self.comm_times[-1]

    def start_time(self, stage: int, dataset: int) -> float:
        """Start of *stage* for data set *dataset* (any replica)."""
        if not 0 <= stage < self.mapping.m:
            raise ValueError(f"stage {stage} out of range")
        if dataset < 0:
            raise ValueError("dataset index must be >= 0")
        return self.stage_offsets[stage] + dataset * self.period

    def completion_time(self, dataset: int) -> float:
        """Output time of data set *dataset* under the static schedule."""
        if dataset < 0:
            raise ValueError("dataset index must be >= 0")
        return self.latency + dataset * self.period

    def meets_deadlines(self, max_latency: float) -> bool:
        """Section 1: deadline of data set K is ``K * P + max_latency``;
        the static schedule meets all of them iff its latency does."""
        return self.latency <= max_latency

    def processor_busy_intervals(
        self, proc: int, n_datasets: int
    ) -> list[tuple[float, float]]:
        """Busy windows of *proc* over the first *n_datasets* data sets."""
        for j, (_iv, procs) in enumerate(self.mapping):
            if proc in procs:
                w = self.mapping.interval_work(j)
                dur = w / float(self.mapping.platform.speeds[proc])
                return [
                    (self.stage_offsets[j] + k * self.period,
                     self.stage_offsets[j] + k * self.period + dur)
                    for k in range(n_datasets)
                ]
        return []

    def gantt(self, n_datasets: int = 3, width: int = 72) -> str:
        """ASCII Gantt chart of the first *n_datasets* data sets.

        One row per processor; digits mark which data set occupies each
        time slot (``.`` = idle).  Rows are labelled ``P<u>:I<j>``.
        """
        if n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")
        horizon = self.latency + (n_datasets - 1) * self.period
        scale = width / horizon
        lines = [
            f"period={self.period:g} latency={self.latency:g} "
            f"({n_datasets} data sets, {width} cols = {horizon:g} time units)"
        ]
        for j, (_iv, procs) in enumerate(self.mapping):
            for u in procs:
                row = ["."] * width
                for k, (a, b) in enumerate(
                    self.processor_busy_intervals(u, n_datasets)
                ):
                    lo = min(int(a * scale), width - 1)
                    hi = min(max(int(math.ceil(b * scale)), lo + 1), width)
                    for c in range(lo, hi):
                        row[c] = str(k % 10)
                lines.append(f"P{u:<3d} I{j}: " + "".join(row))
        return "\n".join(lines)


def build_schedule(  # repro-lint: disable=API001 §1 deadline model
    mapping: Mapping, period: float | None = None
) -> StaticSchedule:
    """Build the canonical static schedule of *mapping*.

    Parameters
    ----------
    period:
        Injection period; defaults to the mapping's worst-case period
        ``WP`` (the fastest valid rate).  Must be ``>= WP`` — otherwise
        some processor would need to start a data set before finishing
        the previous one.

    Raises
    ------
    ValueError
        If *period* is below the mapping's worst-case period.
    """
    ev = evaluate_mapping(mapping)
    if period is None:
        period = ev.worst_case_period
    if period < ev.worst_case_period - 1e-12:
        raise ValueError(
            f"period {period} below the mapping's worst-case period "
            f"{ev.worst_case_period}: processors cannot keep up"
        )
    b = mapping.platform.bandwidth
    offsets: list[float] = []
    durations: list[float] = []
    comms: list[float] = []
    t = 0.0
    for j in range(mapping.m):
        offsets.append(t)
        durations.append(ev.worst_case_costs[j])
        comms.append(mapping.interval_output(j) / b)
        t += durations[j] + comms[j]
    return StaticSchedule(
        mapping=mapping,
        period=float(period),
        stage_offsets=tuple(offsets),
        stage_durations=tuple(durations),
        comm_times=tuple(comms),
    )
