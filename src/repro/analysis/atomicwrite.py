"""IO rules: artifact layers never write files non-atomically.

The run ledger's contract (:mod:`repro.obs.ledger`) is that readers
observe either a complete artifact or none — interrupted writes leave
no half-runs.  The cache makes the same promise for entries shared by
concurrent sweeps.  That only holds if *every* write in the artifact
layers goes through the sanctioned atomic idiom: mkstemp +
``os.replace``.

``IO001``
    A raw file write (``open(..., "w")``, ``Path.write_text`` /
    ``write_bytes``, ``os.open``) inside the artifact scope
    (:data:`SCOPE`).  Route it through
    :func:`repro.obs.ledger.write_atomic` — or, if the function is
    itself an atomic-write helper, make that visible by calling
    ``tempfile.mkstemp`` and ``os.replace`` in its body (such
    functions are exempt).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, SourceFile, register_rules

__all__ = ["RULES", "SCOPE", "check"]

RULES = {
    "IO001": "non-atomic file write in an artifact-producing module",
}
register_rules(RULES)

#: Module prefixes holding artifact writers: the run ledger, the result
#: cache and the rest of the experiment layer, and the CLI (manifests).
SCOPE = ("repro.obs", "repro.experiments", "repro.cli")

_WRITE_ATTRS = {"write_text", "write_bytes"}


def in_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in SCOPE
    )


def check(files: "list[SourceFile]") -> Iterable[Finding]:
    for src in files:
        if not in_scope(src.module):
            continue
        exempt = _atomic_helper_spans(src)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if not any(start <= node.lineno <= end for start, end in exempt):
                message = _write_message(node, src)
                if message:
                    yield src.finding(node, "IO001", message)


def _atomic_helper_spans(src: SourceFile) -> list[tuple[int, int]]:
    """Line spans of functions that *are* the atomic-write idiom
    (they call both tempfile.mkstemp and os.replace)."""
    spans = []
    for fn in ast.walk(src.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callees = {
            src.imports.resolve_call(node)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        }
        if "tempfile.mkstemp" in callees and "os.replace" in callees:
            spans.append((fn.lineno, fn.end_lineno or fn.lineno))
    return spans


def _write_message(node: ast.Call, src: SourceFile) -> "str | None":
    callee = src.imports.resolve_call(node)
    if callee in ("open", "io.open"):
        mode = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        if isinstance(mode, str) and any(c in mode for c in "wax+"):
            return (
                f"open(..., {mode!r}) writes in place; readers can observe "
                f"a partial file — use repro.obs.ledger.write_atomic"
            )
        return None
    if callee == "os.open":
        return (
            "os.open() in an artifact module; use the mkstemp + os.replace "
            "idiom (repro.obs.ledger.write_atomic)"
        )
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _WRITE_ATTRS
    ):
        return (
            f".{node.func.attr}() writes in place; readers can observe a "
            f"partial file — use repro.obs.ledger.write_atomic"
        )
    return None
