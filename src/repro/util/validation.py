"""Small argument-validation helpers shared across the library.

Centralizing these keeps error messages uniform and the model classes
lean.  All helpers raise :class:`ValueError` (or :class:`TypeError` for
clearly wrong types) with messages naming the offending parameter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "as_float_array",
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
