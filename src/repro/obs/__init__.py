"""Observability for the experiment stack: telemetry + run ledger.

Two halves, both deterministic and dependency-free:

* :mod:`repro.obs.telemetry` — an aggregating span/counter API
  (:func:`span`, :func:`counter`, :func:`collect`) that the sweep
  harness, result cache, bounds-grid derivation, and planner are
  instrumented with.  Near-zero cost when no collector is installed.
  Collection happens in the parent process only: pool workers return
  unit results, and a worker unit's seconds travel in its unit event.
* :mod:`repro.obs.ledger` — the run-addressed artifact ledger: every
  ``repro scenario run`` / ``repro experiment`` / cross-check writes
  ``runs/<run_id>/{manifest.json, per_unit.jsonl, report.md}`` via a
  deterministic, atomic writer, and ``repro runs list/show/diff``
  inspects and compares the results.
"""

from repro.obs.ledger import (
    DEFAULT_RUNS_DIR,
    RunRecord,
    check_directory,
    diff_runs,
    find_run,
    list_runs,
    load_run,
    render_diff,
    render_report,
    resolve_runs_dir,
    run_id_for,
    write_atomic,
    write_run,
)
from repro.obs.telemetry import Telemetry, active, collect, counter, span

__all__ = [
    "DEFAULT_RUNS_DIR",
    "RunRecord",
    "Telemetry",
    "active",
    "check_directory",
    "collect",
    "counter",
    "diff_runs",
    "find_run",
    "list_runs",
    "load_run",
    "render_diff",
    "render_report",
    "resolve_runs_dir",
    "run_id_for",
    "span",
    "write_atomic",
    "write_run",
]
