"""repro.analysis — AST-level invariant checkers for the repo's own
contracts (``repro lint``).

The reproduction's guarantees — bit-identical batched kernels,
content-hash cache keys that move when behavior moves, byte-identical
run-ledger artifacts — were until now enforced only dynamically, by
tests that must think to exercise the right path.  This package is the
static layer: a custom lint pass over the source tree whose rules
encode the repo's *own* invariants, run on every commit (the
``lint-invariants`` CI job) before any test does.

Checkers and their rules
------------------------
* :mod:`~repro.analysis.determinism` — ``DET001``-``DET004``: solver
  and kernel modules may not read clocks, unseeded randomness, or the
  environment, nor iterate bare sets;
* :mod:`~repro.analysis.cachekeys` — ``KEY001``-``KEY003``: every
  Problem field the solve path reads must be covered by a cache-key
  ingredient in ``ResultCache.unit_key_for`` (and the method
  fingerprint, batched kernel included, must stay an ingredient);
* :mod:`~repro.analysis.atomicwrite` — ``IO001``: artifact layers
  write files only through the mkstemp + ``os.replace`` idiom;
* :mod:`~repro.analysis.registry` — ``REG001``-``REG003``:
  ``register_method`` call sites declare valid objectives, consistent
  seeding, and no silent name collisions;
* :mod:`~repro.analysis.telemetry` — ``TEL001``-``TEL002``: no
  telemetry in kernel inner loops, no I/O in kernels at all;
* :mod:`~repro.analysis.imports` — ``IMP001``: no module-level import
  that loads scipy or networkx outside the modules that need them, so
  a run imports only what it uses;
* :mod:`~repro.analysis.surface` — ``API001``: every public
  module-level def has a caller in the package, or a waiver naming the
  paper section or caller it serves.

Waivers
-------
A finding is silenced inline with a justified waiver::

    t0 = time.perf_counter()  # repro-lint: disable=DET001 measures cost only

The justification is mandatory (``WAIVE001``) and the waiver must
suppress something (``WAIVE002``), so ``repro lint`` output plus the
waiver inventory is always a complete, honest record of where the
contracts bend.

Entry points: ``repro lint`` (CLI), :func:`run_lint` (library),
``tests/test_analysis.py`` (fixtures corpus under
``tests/lint_fixtures/``).
"""

from repro.analysis.core import (
    Finding,
    RULES,
    render_json,
    render_text,
    run_lint,
)

# Importing the checker modules registers their rules in the catalog.
from repro.analysis import (  # noqa: F401  (imported for registration)
    atomicwrite,
    cachekeys,
    determinism,
    imports,
    registry,
    surface,
    telemetry,
)

__all__ = [
    "Finding",
    "RULES",
    "render_json",
    "render_text",
    "run_lint",
]
