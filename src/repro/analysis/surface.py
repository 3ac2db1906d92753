"""API rule: every public module-level name has a caller in the package.

This reproduction ships the paper's artefacts plus the sweep, cache and
CLI that run them.  A public function or class that no module uses is
maintenance weight, unless it *is* one of those artefacts and only
tests, examples or users call it: such a symbol carries a waiver that
names the paper section or the caller it serves.

``API001``
    A public (no leading ``_``) module-level ``def`` or ``class`` in
    ``repro.*`` that no module of the linted tree references.  A
    reference is a ``Name``, an attribute access or a ``from ...
    import`` name in a module that is not a package ``__init__``; the
    defining module counts.  ``__init__`` re-exports, ``__all__``
    entries, lazy ``__getattr__`` name tables and docstrings do not
    count.  The rule needs the whole package, so it runs only when the
    linted set contains the root module ``repro``: linting one file
    reports neither the rule nor its waivers.  Waive on the ``def``
    line with the paper section or caller, e.g.
    ``# repro-lint: disable=API001 Algorithm 1, §5.1``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, SourceFile, covers_package, register_rules

__all__ = ["RULES", "check"]

RULES = {
    "API001": "public module-level def or class that no module references",
}
register_rules(RULES, package_only=True)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def check(files: "list[SourceFile]") -> Iterable[Finding]:
    if not covers_package(files):
        return
    referenced = set()
    for src in files:
        if not src.is_package:
            referenced |= _references(src.tree)
    for src in files:
        if not (src.module == "repro" or src.module.startswith("repro.")):
            continue
        for node in src.tree.body:
            if (
                isinstance(node, _DEFS)
                and not node.name.startswith("_")
                and node.name not in referenced
            ):
                yield src.finding(
                    node,
                    "API001",
                    f"{src.module}.{node.name} is public but no module uses it; "
                    "delete it, or waive it with the paper section or caller it serves",
                )


def _references(tree: ast.Module) -> "set[str]":
    """Every name a module reads, by bare name, attribute or from-import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names
