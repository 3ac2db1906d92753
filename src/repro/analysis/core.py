"""Shared engine of the invariant checkers (:mod:`repro.analysis`).

The checkers in this package are *project linters*: AST passes that
encode repo-specific contracts (determinism of solver modules,
completeness of cache-key ingredients, atomic-write discipline, the
method-registry contract, telemetry discipline in kernels, lazy heavy
imports) that generic tools like ruff cannot know about.  This module
holds everything they share:

* :class:`SourceFile` — a parsed file plus the *module identity* the
  scoping rules key on (``repro.algorithms.batch`` is a kernel module,
  ``repro.obs.ledger`` is an artifact module, ...).  Identity is
  normally derived from the package layout on disk; a fixture header
  comment (``# repro-lint-fixture: module=...``) overrides it so the
  test corpus under ``tests/lint_fixtures/`` can impersonate any
  module without living inside the package;
* :class:`ImportMap` — import-aware name resolution, so ``from time
  import perf_counter as pc; pc()`` is recognized as a clock read just
  like ``time.perf_counter()``;
* :class:`Finding` and the rule catalog (:data:`RULES`), text and JSON
  rendering (both deterministically sorted — two runs over the same
  tree produce byte-identical output);
* the waiver syntax: ``# repro-lint: disable=RULE[,RULE2] reason``.
  A waiver *requires* a justification (rule ``WAIVE001`` otherwise)
  and must actually suppress something (``WAIVE002`` otherwise), so
  the waiver inventory stays an honest record of known exceptions.

A waiver written on a code line covers findings reported on that line;
written on a line of its own it covers the next line (for calls too
long to share a line with a comment).
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = [
    "Finding",
    "ImportMap",
    "RULES",
    "SourceFile",
    "dotted_name",
    "import_base",
    "iter_python_files",
    "load_source_file",
    "render_json",
    "render_text",
    "run_lint",
]

#: Rule catalog: id -> one-line description.  Checker modules extend
#: this at import time via :func:`register_rules`; the engine's own
#: waiver rules live here.
RULES: dict[str, str] = {
    "WAIVE001": "malformed waiver: missing justification or unknown rule id",
    "WAIVE002": "unused waiver: the comment suppresses nothing on its target line",
}

_FIXTURE_RE = re.compile(r"^#\s*repro-lint-fixture:\s*module=([A-Za-z0-9_.]+)")
_WAIVER_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,]+)\s*(.*)$")


def register_rules(rules: dict[str, str]) -> None:
    """Add a checker's rules to the catalog (duplicate ids rejected)."""
    for rule_id, description in rules.items():
        if rule_id in RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        RULES[rule_id] = description


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int           # line the comment sits on
    target: int         # line whose findings it suppresses
    rules: tuple[str, ...]
    reason: str


class ImportMap:
    """Import-aware resolution of dotted names within one module.

    ``resolve("np.random.default_rng")`` returns
    ``"numpy.random.default_rng"`` given ``import numpy as np``;
    names with no import binding pass through unchanged (locals stay
    local, so ``rng.random()`` never matches the stdlib ``random``
    module).
    """

    def __init__(self, tree: ast.AST, module: str, is_package: bool = False) -> None:
        self.bindings: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.bindings[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = import_base(node, module, is_package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{base}.{alias.name}" if base else alias.name

    def resolve(self, dotted: "str | None") -> "str | None":
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        full = self.bindings.get(head)
        if full is None:
            return dotted
        return f"{full}.{rest}" if rest else full

    def resolve_call(self, node: ast.Call) -> "str | None":
        """Resolved dotted name of a call's callee, or None (lambda,
        subscript, nested call, ...)."""
        return self.resolve(dotted_name(node.func))


def import_base(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """Absolute module a ``from ... import`` statement imports from."""
    base = node.module or ""
    if not node.level:
        return base
    # Relative import: anchor on the enclosing package.
    pkg_parts = module.split(".") if module else []
    if not is_package and pkg_parts:
        pkg_parts = pkg_parts[:-1]
    keep = pkg_parts[: len(pkg_parts) - (node.level - 1)]
    return ".".join([*keep, base] if base else keep)


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class SourceFile:
    """One parsed source file plus its module identity and waivers."""

    path: pathlib.Path
    display_path: str
    module: str
    is_package: bool
    text: str
    tree: ast.Module
    imports: ImportMap = field(init=False)
    waivers: list[Waiver] = field(default_factory=list)
    waiver_findings: list[Finding] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree, self.module, self.is_package)
        self._parse_waivers()

    def _parse_waivers(self) -> None:
        # Tokenize so only real comments count — the waiver syntax
        # quoted in a docstring or string literal is documentation.
        lines = self.text.splitlines()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, SyntaxError):  # pragma: no cover
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _WAIVER_RE.search(tok.string)
            if match is None:
                continue
            lineno = tok.start[0]
            line = lines[lineno - 1] if lineno <= len(lines) else ""
            rules = tuple(r for r in match.group(1).split(",") if r)
            reason = match.group(2).strip()
            problems = []
            if not reason:
                problems.append("a waiver requires a justification after the rule id")
            unknown = [r for r in rules if r not in RULES or r.startswith("WAIVE")]
            if unknown:
                problems.append(f"unknown or unwaivable rule id(s): {', '.join(unknown)}")
            if problems:
                self.waiver_findings.append(
                    Finding(self.display_path, lineno, "WAIVE001", "; ".join(problems))
                )
                continue
            comment_only = line[: tok.start[1]].strip() == ""
            self.waivers.append(
                Waiver(
                    line=lineno,
                    target=lineno + 1 if comment_only else lineno,
                    rules=rules,
                    reason=reason,
                )
            )

    def finding(self, node: "ast.AST | int", rule: str, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Finding(self.display_path, line, rule, message)


def derive_module(path: pathlib.Path) -> tuple[str, bool]:
    """Infer a file's dotted module name from ``__init__.py`` nesting.

    Returns ``(module, is_package)``.  Files outside any package (e.g.
    fixtures, scripts) get their bare stem.
    """
    is_package = path.name == "__init__.py"
    parts = [] if is_package else [path.stem]
    parent = path.resolve().parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem, is_package


def load_source_file(
    path: "str | pathlib.Path", root: "pathlib.Path | None" = None
) -> SourceFile:
    """Parse one file into a :class:`SourceFile`.

    The display path is relative to *root* (or the working directory)
    when possible, so findings are stable across machines.  A fixture
    header in the first lines overrides the derived module identity.
    """
    path = pathlib.Path(path)
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    module, is_package = derive_module(path)
    for line in text.splitlines()[:3]:
        match = _FIXTURE_RE.match(line)
        if match:
            module, is_package = match.group(1), False
            break
    base = root or pathlib.Path.cwd()
    try:
        display = path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        display = path.as_posix()
    return SourceFile(
        path=path,
        display_path=display,
        module=module,
        is_package=is_package,
        text=text,
        tree=tree,
    )


def iter_python_files(paths: Sequence["str | pathlib.Path"]) -> list[pathlib.Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: dict[pathlib.Path, None] = {}
    for entry in paths:
        entry = pathlib.Path(entry)
        if entry.is_dir():
            found = [
                p for p in entry.rglob("*.py") if "__pycache__" not in p.parts
            ]
        elif entry.is_file():
            found = [entry]
        else:
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for p in sorted(found):
            seen.setdefault(p.resolve(), None)
    return list(seen)


# -- running ---------------------------------------------------------------


def checkers() -> "list[Callable[[list[SourceFile]], Iterable[Finding]]]":
    """The six invariant checkers, in catalog order.

    Imported lazily so the checker modules can call
    :func:`register_rules` against this module without a cycle.
    """
    from repro.analysis import (
        atomicwrite,
        cachekeys,
        determinism,
        imports,
        registry,
        telemetry,
    )

    return [
        determinism.check,
        cachekeys.check,
        atomicwrite.check,
        registry.check,
        telemetry.check,
        imports.check,
    ]


def run_lint(
    paths: Sequence["str | pathlib.Path"],
    rules: "Sequence[str] | None" = None,
    root: "pathlib.Path | None" = None,
) -> list[Finding]:
    """Lint *paths* and return the surviving findings, sorted.

    Waivers are applied before the optional *rules* subset filter;
    the waiver-audit rules (``WAIVE001`` malformed, ``WAIVE002``
    unused) only fire on a full run — a subset run cannot tell a
    genuinely unused waiver from one whose rule was filtered out.
    """
    # Resolve the checkers first: importing them fills the rule catalog
    # the waiver parser validates ids against.
    checks = checkers()
    files = [load_source_file(p, root=root) for p in iter_python_files(paths)]
    raw: list[Finding] = []
    for check in checks:
        raw.extend(check(files))

    findings: list[Finding] = []
    used: set[tuple[str, int]] = set()  # (display_path, waiver line)
    waivers_by_file = {
        f.display_path: {
            (w.target, rule): w for w in f.waivers for rule in w.rules
        }
        for f in files
    }
    for finding in raw:
        waiver = waivers_by_file.get(finding.path, {}).get(
            (finding.line, finding.rule)
        )
        if waiver is not None:
            used.add((finding.path, waiver.line))
        else:
            findings.append(finding)

    full_run = rules is None
    if full_run:
        for f in files:
            findings.extend(f.waiver_findings)
            for waiver in f.waivers:
                if (f.display_path, waiver.line) not in used:
                    findings.append(
                        Finding(
                            f.display_path,
                            waiver.line,
                            "WAIVE002",
                            f"waiver for {','.join(waiver.rules)} suppresses "
                            f"nothing on line {waiver.target}",
                        )
                    )
    else:
        wanted = set(rules)
        unknown = wanted - set(RULES)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {sorted(unknown)}; known: {sorted(RULES)}"
            )
        findings = [f for f in findings if f.rule in wanted]
    return sorted(findings)


# -- rendering -------------------------------------------------------------


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in sorted(findings)
    ]
    if findings:
        by_rule: dict[str, int] = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        summary = ", ".join(f"{rule} x{n}" for rule, n in sorted(by_rule.items()))
        lines.append(f"{len(findings)} finding(s): {summary}")
    else:
        lines.append("no findings")
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding]) -> str:
    """Deterministic machine-readable report (sorted keys + findings).

    Byte-identical across reruns over the same tree — the CI artifact
    can be diffed between commits.
    """
    payload = {
        "schema": 1,
        "counts": _counts(findings),
        "findings": [
            {"path": f.path, "line": f.line, "rule": f.rule, "message": f.message}
            for f in sorted(findings)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _counts(findings: Sequence[Finding]) -> dict[str, int]:
    out: dict[str, int] = {}
    for f in findings:
        out[f.rule] = out.get(f.rule, 0) + 1
    return out
