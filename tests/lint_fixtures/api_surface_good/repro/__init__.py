"""Package root of the good API001 case: the same re-exports as the bad
case, but every public name also has a caller or a waiver."""

from repro.widgets import Gadget, listed, shown_off

__all__ = ["Gadget", "listed", "shown_off"]
