"""A non-``__init__`` caller of the package's public names."""

from repro import widgets
from repro.widgets import Gadget


def main():
    return widgets.shown_off(), Gadget()


if __name__ == "__main__":
    main()
