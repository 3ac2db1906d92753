"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists each public name with the module that defines it, and
that module is imported on the name's first access rather than with
the package.  An import then pays only for the names it uses:
``from repro.core import TaskChain`` loads :mod:`repro.core.chain`
alone, and ``import repro.cli`` loads no numpy.
"""

import importlib

__all__ = ["lazy_exports"]


# repro-lint: disable=API001 called by the lazy package __init__ modules
def lazy_exports(namespace: dict, names: "dict[str, str]"):
    """The module ``__getattr__`` and ``__dir__`` serving *names*.

    *namespace* is the package's ``globals()`` and *names* maps each
    served name to its defining module.  The first access imports that
    module and binds the name in *namespace*, so later accesses are
    plain attribute lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = names[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> "list[str]":
        return sorted(namespace.keys() | names.keys())

    return __getattr__, __dir__
