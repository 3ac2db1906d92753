"""Transient-fault injectors (the Shatz-Wang failure model, Section 2.4).

Failures are transient and "hot": a fault corrupts only the operation
executing on the faulty component when it strikes; subsequent
operations are unaffected.  Fault arrivals on each component follow a
Poisson process with constant rate ``lambda``, independent across
components.  Consequently an operation of duration ``d`` succeeds iff
no arrival lands in its window — probability ``exp(-lambda d)``.

Two injectors realize this:

* :class:`BernoulliFaults` draws the success Bernoulli directly
  (probability ``exp(-lambda d)``);
* :class:`PoissonFaults` samples the first arrival time
  ``T ~ Exp(lambda)`` and declares failure iff ``T < d`` — the process
  view.  ``P(T >= d) = exp(-lambda d)``: the two are distributionally
  identical per operation, which ``tests/test_simulation.py`` verifies.

:class:`NoFaults` short-circuits everything for timing-only runs.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from repro.util.rng import ensure_rng

__all__ = ["FaultInjector", "BernoulliFaults", "PoissonFaults", "NoFaults"]


class FaultInjector(Protocol):
    """Decides the fate of one operation on one component."""

    def operation_succeeds(self, rate: float, duration: float) -> bool:
        """Sample whether an operation of *duration* on a component of
        failure rate *rate* completes without a fault."""
        ...


class BernoulliFaults:
    """Per-operation Bernoulli sampling with probability ``exp(-rate*d)``."""

    def __init__(self, rng: "int | None | np.random.Generator" = None) -> None:
        self._rng = ensure_rng(rng)

    def operation_succeeds(self, rate: float, duration: float) -> bool:
        if rate < 0 or duration < 0:
            raise ValueError("rate and duration must be >= 0")
        if rate == 0.0 or duration == 0.0:
            return True
        return bool(self._rng.random() < math.exp(-rate * duration))


class PoissonFaults:  # repro-lint: disable=API001 §2.4 fault model
    """Explicit first-arrival sampling: fail iff ``Exp(rate) < duration``."""

    def __init__(self, rng: "int | None | np.random.Generator" = None) -> None:
        self._rng = ensure_rng(rng)

    def operation_succeeds(self, rate: float, duration: float) -> bool:
        if rate < 0 or duration < 0:
            raise ValueError("rate and duration must be >= 0")
        if rate == 0.0 or duration == 0.0:
            return True
        first_arrival = self._rng.exponential(1.0 / rate)
        return bool(first_arrival >= duration)


class NoFaults:  # repro-lint: disable=API001 §2.4 fault model
    """Every operation succeeds — for pure timing studies."""

    def operation_succeeds(self, rate: float, duration: float) -> bool:  # noqa: ARG002
        return True
