"""Small argument-validation helpers shared across the library.

Centralizing these keeps error messages uniform and the model classes
lean.  All helpers raise :class:`ValueError` (or :class:`TypeError` for
clearly wrong types) with messages naming the offending parameter.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "as_float_array",
    "check_bound",
    "check_log_floor",
    "check_min_reliability",
    "check_positive",
    "check_nonnegative",
]


def as_float_array(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert to a 1-D, C-contiguous float64 array; reject empties/NaNs."""
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if np.any(~np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_bound(name: str, value: float) -> float:
    """A period/latency bound as a float, rejected unless ``> 0``
    (``inf`` = unbounded, NaN is an error) — the check every
    :class:`~repro.solve.Problem`, sweep and public solver runs."""
    value = float(value)
    if math.isnan(value) or value <= 0:
        raise ValueError(f"{name} must be > 0 (inf = unbounded), got {value!r}")
    return value


def check_log_floor(value: float) -> float:
    """A solver's ``min_log_reliability`` floor as a float, rejected
    unless it is a log-probability (``<= 0``; ``-inf`` = no floor)."""
    value = float(value)
    if math.isnan(value) or value > 0.0:
        raise ValueError(
            f"min_log_reliability must be a log-probability (<= 0), got {value!r}"
        )
    return value


def check_min_reliability(min_reliability: float, objective: str) -> float:
    """A reliability floor for *objective* as a float.

    A floor lies in ``[0, 1)`` (0 = none) and constrains the converse
    objectives only, so a nonzero floor with ``objective="reliability"``
    is an error.
    """
    min_reliability = float(min_reliability)
    if math.isnan(min_reliability) or not 0.0 <= min_reliability < 1.0:
        raise ValueError(
            f"min_reliability must lie in [0, 1) (0 = no floor), got {min_reliability!r}"
        )
    if objective == "reliability" and min_reliability != 0.0:
        raise ValueError(
            "min_reliability is a constraint for the converse objectives "
            "('period', 'latency', 'energy'); with objective='reliability' "
            "the criterion itself is maximized — leave the floor at 0.0"
        )
    return min_reliability

