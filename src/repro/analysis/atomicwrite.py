"""IO rules: artifact layers never write files non-atomically.

The run ledger's contract (:mod:`repro.obs.ledger`) is that readers
observe either a complete artifact or none — interrupted writes leave
no half-runs.  The cache makes the same promise for entries shared by
concurrent sweeps.  That only holds if *every* write in the artifact
layers goes through a sanctioned atomic idiom.  Two are recognized:
the filesystem one (mkstemp + ``os.replace``) and, for any SQL
writer, the transactional one (``BEGIN IMMEDIATE`` + commit) — a
mutation inside an immediate transaction is the database equivalent
of a rename, so readers observe entries fully or not at all.

``IO001``
    A raw file write (``open(..., "w")``, ``Path.write_text`` /
    ``write_bytes``, ``os.open``) inside the artifact scope
    (:data:`SCOPE`).  Route it through
    :func:`repro.obs.ledger.write_atomic` — or, if the function is
    itself an atomic-write helper, make that visible by calling
    ``tempfile.mkstemp`` and ``os.replace`` in its body (such
    functions are exempt).
``IO002``
    A SQL mutation (an ``execute()`` of a constant ``INSERT`` /
    ``REPLACE`` / ``UPDATE`` / ``DELETE`` statement) inside the
    artifact scope, outside a function that opens an explicit
    transaction (an ``execute("BEGIN IMMEDIATE")`` in its body).
    Autocommit writes give concurrent readers torn multi-statement
    updates and give an interrupted writer no rollback point — wrap
    the mutation in ``BEGIN IMMEDIATE`` ... ``COMMIT``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, SourceFile, register_rules

__all__ = ["RULES", "SCOPE", "check"]

RULES = {
    "IO001": "non-atomic file write in an artifact-producing module",
    "IO002": "SQL mutation outside an explicit transaction in an "
    "artifact-producing module",
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
        transactional = _transactional_spans(src)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if not any(start <= node.lineno <= end for start, end in exempt):
                message = _write_message(node, src)
                if message:
                    yield src.finding(node, "IO001", message)
            statement = _sql_mutation(node)
            if statement and not any(
                start <= node.lineno <= end for start, end in transactional
            ):
                yield src.finding(
                    node,
                    "IO002",
                    f"autocommit {statement} in an artifact module; wrap the "
                    f"mutation in an execute(\"BEGIN IMMEDIATE\") ... COMMIT "
                    f"transaction so readers never observe it torn",
                )


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


#: SQL verbs that mutate rows — what IO002 demands a transaction around.
_SQL_MUTATIONS = ("INSERT", "REPLACE", "UPDATE", "DELETE")


def _sql_statement(node: ast.Call) -> "str | None":
    """The constant SQL text of an ``execute``-family call, else None."""
    if not (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("execute", "executemany", "executescript")
    ):
        return None
    if not (node.args and isinstance(node.args[0], ast.Constant)):
        return None
    sql = node.args[0].value
    return sql if isinstance(sql, str) else None


def _sql_mutation(node: ast.Call) -> "str | None":
    """The leading SQL verb when *node* executes a constant mutation."""
    sql = _sql_statement(node)
    if sql is None:
        return None
    verb = sql.lstrip().split(" ", 1)[0].upper()
    return verb if verb in _SQL_MUTATIONS else None


def _transactional_spans(src: SourceFile) -> list[tuple[int, int]]:
    """Line spans of functions that *are* the transactional-write idiom
    (they open an explicit ``BEGIN`` transaction, e.g. BEGIN IMMEDIATE,
    so every mutation inside commits or rolls back atomically)."""
    spans = []
    for fn in ast.walk(src.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            sql = _sql_statement(node)
            if sql is not None and sql.lstrip().upper().startswith("BEGIN"):
                spans.append((fn.lineno, fn.end_lineno or fn.lineno))
                break
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
