"""REG rules: ``register_method`` call sites must honor the registry
contract statically.

:func:`repro.experiments.methods.register_method` validates some of
its contract at import time, but several failure modes only surface
when the method is actually *run* — or never surface at all (a
``seed`` parameter nobody passes, a silently re-registered name in
code that never executes in CI).  These rules move that validation to
lint time:

``REG001``
    Declared ``objectives`` must be a non-empty subset of
    :data:`repro.solve.OBJECTIVES` (the tuple is read from
    ``solve/objectives.py`` in the linted file set, falling back to the
    published default).
``REG002``
    A decorated callable takes exactly one parameter, the
    :class:`~repro.solve.Problem`: the harness passes nothing else, so
    a ``seed`` (or any other extra) parameter always takes its default,
    and that default — for a seed, usually ``None`` — would decide
    determinism silently.  A stochastic method seeds itself from
    :meth:`Problem.content_hash`.
``REG003``
    A method name registered twice without ``replace=True`` on the
    later site: at import time the second registration raises, but
    only on the import path that happens to load both modules.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, SourceFile, register_rules

__all__ = ["DEFAULT_OBJECTIVES", "RULES", "check"]

RULES = {
    "REG001": "register_method declares objectives outside repro.solve.OBJECTIVES",
    "REG002": "register_method callable does not take exactly one parameter (the Problem)",
    "REG003": "duplicate method name registered without replace=True",
}
register_rules(RULES)

OBJECTIVES_MODULE = "repro.solve.objectives"

#: Fallback when the linted file set does not include solve/objectives.py.
DEFAULT_OBJECTIVES = ("reliability", "period", "latency", "energy")


def check(files: "list[SourceFile]") -> Iterable[Finding]:
    objectives = _extract_objectives(files)
    registrations: list[tuple[SourceFile, ast.Call, bool]] = []

    for src in files:
        decorator_ids: set[int] = set()
        for fn in ast.walk(src.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in fn.decorator_list:
                    if isinstance(dec, ast.Call) and _is_register(dec, src):
                        decorator_ids.add(id(dec))
                        registrations.append((src, dec, True))
                        yield from _check_signature(src, dec, fn)
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and id(node) not in decorator_ids
                and _is_register(node, src)
            ):
                registrations.append((src, node, False))

    for src, call, _ in registrations:
        yield from _check_objectives(src, call, objectives)

    yield from _check_duplicates(registrations)


def _is_register(node: ast.Call, src: SourceFile) -> bool:
    callee = src.imports.resolve_call(node)
    return bool(callee) and callee.split(".")[-1] == "register_method"


def _extract_objectives(files: "list[SourceFile]") -> tuple[str, ...]:
    for src in files:
        if src.module != OBJECTIVES_MODULE:
            continue
        for node in src.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "OBJECTIVES"
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                values = [
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                if values:
                    return tuple(values)
    return DEFAULT_OBJECTIVES


def _kwarg(call: ast.Call, name: str) -> "ast.expr | None":
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _check_objectives(
    src: SourceFile, call: ast.Call, objectives: tuple[str, ...]
) -> Iterable[Finding]:
    value = _kwarg(call, "objectives")
    if value is None or not isinstance(value, (ast.Tuple, ast.List)):
        return  # default, or dynamically built — nothing to check statically
    declared = [
        e.value
        for e in value.elts
        if isinstance(e, ast.Constant) and isinstance(e.value, str)
    ]
    if not value.elts:
        yield src.finding(
            call, "REG001",
            "register_method declares an empty objectives tuple; a method "
            "must support at least one objective",
        )
        return
    unknown = [o for o in declared if o not in objectives]
    if unknown:
        yield src.finding(
            call, "REG001",
            f"register_method declares unknown objective(s) {unknown}; "
            f"repro.solve.OBJECTIVES = {list(objectives)}",
        )


def _check_signature(
    src: SourceFile, call: ast.Call, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
) -> Iterable[Finding]:
    args = fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args)]
    extra = params[1:] + [a.arg for a in args.kwonlyargs]
    if args.vararg is not None:
        extra.append(f"*{args.vararg.arg}")
    if args.kwarg is not None:
        extra.append(f"**{args.kwarg.arg}")
    if not params:
        yield src.finding(
            call, "REG002",
            f"{fn.name}() takes no named Problem parameter; the harness "
            f"calls it with exactly one",
        )
    elif extra:
        yield src.finding(
            call, "REG002",
            f"{fn.name}() takes {', '.join(extra)} beside the Problem; "
            f"the harness never passes it, so its default would decide "
            f"the result (and determinism) silently",
        )


def _check_duplicates(
    registrations: "list[tuple[SourceFile, ast.Call, bool]]",
) -> Iterable[Finding]:
    seen: dict[str, tuple[str, int]] = {}
    ordered = sorted(
        registrations, key=lambda r: (r[0].display_path, r[1].lineno)
    )
    for src, call, _ in ordered:
        if not (call.args and isinstance(call.args[0], ast.Constant)):
            continue
        name = call.args[0].value
        if not isinstance(name, str):
            continue
        replace = _kwarg(call, "replace")
        replaces = isinstance(replace, ast.Constant) and replace.value is True
        if name in seen and not replaces:
            first_path, first_line = seen[name]
            yield src.finding(
                call, "REG003",
                f"method {name!r} already registered at "
                f"{first_path}:{first_line}; pass replace=True if the "
                f"override is intentional",
            )
        seen.setdefault(name, (src.display_path, call.lineno))
