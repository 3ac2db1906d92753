"""Package root of the bad API001 case: it re-exports, lists and lazily
serves the public names of :mod:`repro.widgets`, none of which counts
as a use."""

from repro.widgets import Gadget, listed, shown_off

__all__ = ["Gadget", "listed", "shown_off"]

_LAZY = {"lazy_only": "repro.widgets"}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(name)
