"""IMP rules: heavy third-party packages load only on the paths that use them.

scipy (HiGHS, ~0.4-0.6 s to import) backs only the Section 5.4 ILP
solvers, and networkx only the reliability-block-diagram layer and its
consumers (the cross-check, the no-routing study, the simulator's
validation).  A ``repro scenario run`` over the paper's Section 8
methods touches neither, so neither may load while ``repro.cli`` or a
sweep's modules are imported: the heavy import happens inside the
function that needs it, or through a package's PEP 562 ``__getattr__``.

``IMP001``
    A module-level import, outside the heavy modules themselves
    (:data:`HEAVY_MODULES`), that loads scipy or networkx: a direct
    ``scipy`` / ``networkx`` import, an import of a heavy repro module,
    or an import of a name served lazily from a heavy module
    (:data:`LAZY_NAMES`) —
    ``from repro.ilp import solve_with_scipy`` and a ``*`` import of
    such a package included.  Imports inside a function body or an
    ``if TYPE_CHECKING:`` block are fine.  ``repro.ilp`` and
    ``repro.ilp.model`` are *not* exempt: importing them must stay
    light.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding, SourceFile, import_base, register_rules

__all__ = ["HEAVY_MODULES", "LAZY_NAMES", "RULES", "check"]

RULES = {
    "IMP001": "module-level import that loads scipy or networkx",
}
register_rules(RULES)

#: Modules (with their submodules) whose import loads scipy or
#: networkx.  These are also the only repro modules allowed to import
#: them at module level.
HEAVY_MODULES = (
    "scipy",
    "networkx",
    "repro.ilp.scipy_backend",
    "repro.ilp.branch_bound",
    "repro.rbd",
    "repro.simulation",
    "repro.experiments.crosscheck",
    "repro.extensions.norouting",
)

#: The package names, among those each package serves lazily
#: (:mod:`repro._lazy`), that live in a heavy module: importing one at
#: module level loads scipy or networkx.
LAZY_NAMES = {
    "repro.ilp": ("solve_with_scipy", "solve_with_branch_bound"),
    "repro.experiments": ("CrosscheckReport", "run_crosscheck"),
    "repro.extensions": ("RoutingComparison", "compare_routing"),
}


def is_heavy(module: str) -> bool:
    return any(
        module == heavy or module.startswith(heavy + ".") for heavy in HEAVY_MODULES
    )


def check(files: "list[SourceFile]") -> Iterable[Finding]:
    for src in files:
        if not (src.module == "repro" or src.module.startswith("repro.")):
            continue
        if is_heavy(src.module):
            continue
        for node in _module_level_imports(src.tree.body):
            loaded = _heavy_target(node, src)
            if loaded:
                yield src.finding(
                    node,
                    "IMP001",
                    f"module-level import of {loaded} loads scipy/networkx; "
                    "import it inside the function that uses it",
                )


def _module_level_imports(
    body: "list[ast.stmt]",
) -> "Iterator[ast.Import | ast.ImportFrom]":
    """Import statements that run when the module is imported: every
    block except function bodies and ``if TYPE_CHECKING:`` branches."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            yield from _module_level_imports(stmt.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(stmt, field, None)
                if inner:
                    yield from _module_level_imports(inner)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _heavy_target(node: "ast.Import | ast.ImportFrom", src: SourceFile) -> "str | None":
    """The first imported name that loads a heavy package, or None."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if is_heavy(alias.name):
                return alias.name
        return None
    base = import_base(node, src.module, src.is_package)
    if is_heavy(base):
        return base
    for alias in node.names:
        if alias.name == "*" and base in LAZY_NAMES:
            return f"{base}.*"
        full = f"{base}.{alias.name}"
        if is_heavy(full) or alias.name in LAZY_NAMES.get(base, ()):
            return full
    return None
