"""Shared utilities: log-domain reliability arithmetic, Pareto frontiers,
RNG, input validation and content hashing.

These modules are substrate-level helpers used by every other subpackage.
They deliberately contain no scheduling logic.  Importing the package
loads none of them (``from repro.util import logrel`` loads that one),
so :mod:`repro.util.hashing` stays free of numpy.
"""

__all__ = ["hashing", "logrel", "pareto", "rng", "validation"]
