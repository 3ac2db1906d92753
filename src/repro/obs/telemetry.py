"""Lightweight span/counter telemetry for the experiment stack.

A run's story — where wall-clock went, which work units were served by
the batched kernels versus falling back per row, what the result cache
did, which plan steps were skipped — used to evaporate the moment the
process exited.  This module is the collection half of the fix (the
run-addressed artifact ledger in :mod:`repro.obs.ledger` is the
storage half): instrumented code calls :func:`span` and
:func:`counter`, and whoever owns the run (the CLI commands, a bench,
a test) wraps the work in :func:`collect` and reads the aggregated
:class:`Telemetry` afterwards.

Design constraints, in order:

* **near-zero cost when disabled** — no collector installed means
  :func:`span` returns a shared no-op context manager and
  :func:`counter` is a single global read and an early return.  The
  hot paths (a warm 1000-unit sweep) run with telemetry off by
  default; ``bench_ensemble_sweep`` gates the enabled/disabled ratio;
* **aggregated, not evented** — spans and counters accumulate into
  flat ``name -> {count, seconds}`` / ``name -> value`` dicts keyed by
  ``name`` or ``name[label]``, so collection cost does not grow with
  run length and snapshots are trivially JSON-able.  Per-unit detail
  belongs in :attr:`repro.experiments.harness.SweepResult.unit_events`
  (structured data, always collected), not here;
* **parent-only** — sweeps record every span and counter in the
  process that owns the run.  Worker processes return unit results
  only; what a worker spent on a unit travels in that unit's event
  (``seconds``), not through a collector.

Example
-------
>>> from repro.obs import collect, span, counter
>>> with collect() as tele:
...     with span("demo.phase"):
...         counter("demo.widgets", 3)
>>> tele.counters["demo.widgets"]
3
>>> tele.spans["demo.phase"]["count"]
1
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Telemetry",
    "active",
    "collect",
    "counter",
    "span",
]


class _NullSpan:
    """Shared no-op context manager returned when collection is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: The installed collector (one per process).
_ACTIVE: "Telemetry | None" = None


class _Span:
    """One running span: records its duration into the collector on exit."""

    __slots__ = ("_telemetry", "_key", "_t0")

    def __init__(self, telemetry: "Telemetry", key: str) -> None:
        self._telemetry = telemetry
        self._key = key

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._t0
        spans = self._telemetry.spans
        agg = spans.get(self._key)
        if agg is None:
            spans[self._key] = {"count": 1, "seconds": elapsed}
        else:
            agg["count"] += 1
            agg["seconds"] += elapsed
        return False


def _key(name: str, label: "str | None") -> str:
    return name if label is None else f"{name}[{label}]"


class Telemetry:
    """An aggregating collector of spans and counters.

    Attributes
    ----------
    spans:
        ``key -> {"count": n, "seconds": total}`` — how often each
        instrumented region ran and its cumulative wall-clock.  Keys
        are span names, optionally suffixed ``[label]`` for per-method
        (or per-reason) breakdowns.
    counters:
        ``key -> value`` — monotonic tallies (cache hits per method,
        batch-served units, planner skips, ...), same key convention.
    """

    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}
        self.counters: dict[str, "int | float"] = {}

    # -- recording -------------------------------------------------------

    def span(self, name: str, label: "str | None" = None) -> _Span:
        """A context manager timing one region into :attr:`spans`."""
        return _Span(self, _key(name, label))

    def counter(self, name: str, value: "int | float" = 1,
                label: "str | None" = None) -> None:
        """Add *value* to a counter (creating it at 0)."""
        key = _key(name, label)
        self.counters[key] = self.counters.get(key, 0) + value

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able copy of the aggregates."""
        return {
            "spans": {k: dict(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
        }


def active() -> "Telemetry | None":
    """The installed collector, or None when collection is off."""
    return _ACTIVE


def span(name: str, label: "str | None" = None):
    """Time a region into the active collector (no-op when none).

    Usage: ``with obs.span("sweep.batch", label=method.name): ...``.
    The disabled path allocates nothing and returns a shared no-op
    context manager.
    """
    telemetry = _ACTIVE
    if telemetry is None:
        return _NULL_SPAN
    return telemetry.span(name, label)


def counter(name: str, value: "int | float" = 1,
            label: "str | None" = None) -> None:
    """Bump a counter on the active collector (no-op when none)."""
    telemetry = _ACTIVE
    if telemetry is not None:
        telemetry.counter(name, value, label)


@contextmanager
def collect(telemetry: "Telemetry | None" = None) -> Iterator[Telemetry]:
    """Install a collector for the duration of the ``with`` block.

    Yields the collector (a fresh :class:`Telemetry` unless one is
    passed in), restoring the previous one — usually ``None`` — on
    exit, so collections nest and never leak into later code.
    """
    global _ACTIVE
    if telemetry is None:
        telemetry = Telemetry()
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous
