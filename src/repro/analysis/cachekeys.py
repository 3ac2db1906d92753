"""KEY rules: every Problem field a solver reads must be a cache-key
ingredient.

The result cache (:mod:`repro.experiments.cache`) promises that a key
moves whenever behavior moves.  That promise has two halves, and this
checker cross-references them statically:

* the **ingredient side** — the ``ingredients`` dict literal inside
  :meth:`ResultCache.unit_key_for`, plus the positional
  ``content_hash`` arguments (the instance digest covers
  chain/platform columns, the bound tokens cover the per-point
  bounds);
* the **consumption side** — every attribute read on a ``problem`` /
  ``prob`` parameter inside the solve-path modules (``algorithms/``,
  ``extensions/``, ``solve/``, the method registry).

``KEY001``
    A solve path reads a :class:`~repro.solve.Problem` field that no
    cache-key ingredient covers — two problems differing only in that
    field would collide on one cache entry.  Deleting an ingredient
    from ``unit_key_for`` (say the ``"objective"`` field) makes every
    read of the now-uncovered field light up.
``KEY002``
    A fingerprint ingredient went missing: ``unit_key_for`` no longer
    hashes the method ``fingerprint``, or
    :meth:`Method.fingerprint` no longer reads ``solve_batch`` (the
    batched kernel's source is part of the implementation a key
    vouches for).
``KEY003``
    The ingredient model could not be extracted (the ``ingredients``
    dict or ``unit_key_for`` vanished or changed shape) — the checker
    fails loudly rather than silently checking nothing.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, SourceFile, register_rules

__all__ = ["CACHE_MODULE", "FIELD_COVERAGE", "RULES", "SOLVE_SCOPE", "check"]

RULES = {
    "KEY001": "Problem field read on the solve path but absent from the cache key",
    "KEY002": "method-fingerprint ingredient missing from the cache-key model",
    "KEY003": "cache-key ingredient model not extractable from the cache module",
}
register_rules(RULES)

CACHE_MODULE = "repro.experiments.cache"
METHODS_MODULE = "repro.experiments.methods"

#: Module prefixes whose ``problem``-parameter attribute reads are
#: checked against the key ingredients.
SOLVE_SCOPE = (
    "repro.algorithms",
    "repro.extensions",
    "repro.solve",
    METHODS_MODULE,
)

#: Problem field -> the key ingredient that covers it.  ``digest:``
#: prefixed entries are covered by hashing the instance digest (the
#: chain/platform columns), ``bounds:`` by the per-point bound tokens;
#: bare names must appear as keys of the ``ingredients`` dict literal.
FIELD_COVERAGE = {
    "chain": "digest:base_digest",
    "platform": "digest:base_digest",
    "n_tasks": "digest:base_digest",
    "max_period": "bounds:bounds",
    "max_latency": "bounds:bounds",
    "objective": "objective",
    "min_reliability": "min_reliability",
    "min_log_reliability": "min_reliability",
}


def check(files: "list[SourceFile]") -> Iterable[Finding]:
    # The Method.fingerprint half of the contract needs no cache
    # module, so it is checked whenever the registry module is linted.
    yield from _check_method_fingerprint(files)

    cache_files = [f for f in files if f.module == CACHE_MODULE]
    if not cache_files:
        return  # nothing to cross-reference against in this file set
    cache = cache_files[0]
    model, model_findings = _extract_key_model(cache)
    yield from model_findings
    if model is None:
        return

    ingredients, hashed_names = model
    for src in files:
        if not _in_solve_scope(src.module):
            continue
        for node, attr in _problem_reads(src):
            coverage = FIELD_COVERAGE.get(attr)
            if coverage is None:
                continue  # method call or derived helper, not a key field
            kind, _, name = coverage.partition(":")
            covered = (
                name in hashed_names if kind in ("digest", "bounds")
                else coverage in ingredients
            )
            if not covered:
                yield src.finding(
                    node, "KEY001",
                    f"solve path reads Problem.{attr} but "
                    f"{CACHE_MODULE}.ResultCache.unit_key_for has no "
                    f"covering ingredient ({coverage!r}); two problems "
                    f"differing only in {attr} would share a cache entry",
                )

    yield from _check_fingerprint_ingredient(cache)


def _in_solve_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SOLVE_SCOPE
    )


# -- ingredient side -------------------------------------------------------


def _extract_key_model(
    cache: SourceFile,
) -> "tuple[tuple[set[str], set[str]] | None, list[Finding]]":
    """Pull (ingredient dict keys, names hashed positionally) out of
    ``ResultCache.unit_key_for``."""
    fn = _find_method(cache.tree, "ResultCache", "unit_key_for")
    if fn is None:
        return None, [
            cache.finding(
                1, "KEY003",
                "ResultCache.unit_key_for not found; the cache-key "
                "completeness check has nothing to verify against",
            )
        ]
    ingredients: "set[str] | None" = None
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "ingredients"
            and isinstance(node.value, ast.Dict)
        ):
            ingredients = {
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    if ingredients is None:
        return None, [
            cache.finding(
                fn.lineno, "KEY003",
                "no `ingredients = {...}` dict literal in unit_key_for; "
                "cannot enumerate cache-key ingredients",
            )
        ]
    # Ingredients can also be added via subscript assignment
    # (`ingredients["scenario"] = ...`).
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "ingredients"
            and isinstance(node.targets[0].slice, ast.Constant)
        ):
            ingredients.add(node.targets[0].slice.value)

    hashed_names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            callee = cache.imports.resolve_call(node)
            if callee and callee.split(".")[-1] == "content_hash":
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Load
                        ):
                            hashed_names.add(sub.id)
    if not hashed_names:
        return None, [
            cache.finding(
                fn.lineno, "KEY003",
                "unit_key_for never calls content_hash; cannot see what "
                "the key is derived from",
            )
        ]
    return (ingredients, hashed_names), []


def _find_method(
    tree: ast.Module, class_name: str, method: str
) -> "ast.FunctionDef | None":
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return item
    return None


# -- consumption side ------------------------------------------------------


def _problem_reads(src: SourceFile) -> Iterable[tuple[ast.Attribute, str]]:
    """Attribute loads on parameters named ``problem``/``prob`` inside
    any function of *src*."""
    for fn in ast.walk(src.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            )
        }
        names = params & {"problem", "prob"}
        if not names:
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
                and isinstance(node.ctx, ast.Load)
            ):
                yield node, node.attr


# -- fingerprint contract --------------------------------------------------


def _check_fingerprint_ingredient(cache: SourceFile) -> Iterable[Finding]:
    fn = _find_method(cache.tree, "ResultCache", "unit_key_for")
    if fn is None:
        return
    mentions = {
        key.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant)
    }
    if "fingerprint" not in mentions:
        yield cache.finding(
            fn.lineno, "KEY002",
            "unit_key_for does not include the method fingerprint "
            "ingredient; edited solver code would replay stale entries",
        )


def _check_method_fingerprint(files: "list[SourceFile]") -> Iterable[Finding]:
    for src in files:
        if src.module != METHODS_MODULE:
            continue
        fingerprint = _find_method(src.tree, "Method", "fingerprint")
        if fingerprint is None:
            continue
        hashes_batch = any(
            isinstance(node, ast.Attribute) and node.attr == "solve_batch"
            for node in ast.walk(fingerprint)
        )
        if not hashes_batch:
            yield src.finding(
                fingerprint.lineno, "KEY002",
                "Method.fingerprint does not hash solve_batch; editing a "
                "batched kernel would leave cache keys unchanged",
            )
