"""Log-domain reliability arithmetic.

The paper's experiments plot *failure probabilities* down to ``1e-12``
(Figures 7, 9, 11, 13, 15).  A reliability of ``1 - 1e-12`` is within a few
ulp of ``1.0`` in IEEE-754 double precision, so composing reliabilities
directly as probabilities destroys all signal.  Every reliability in this
library is therefore carried as a *log-reliability*

    ``ell = log(r) <= 0``      (``r = exp(ell)`` in ``(0, 1]``),

and failure probabilities are recovered as ``f = 1 - r = -expm1(ell)``,
which is exact to machine precision even for ``f ~ 1e-300``.

Conventions
-----------
* A log-reliability of ``0.0`` means "perfectly reliable" (``r = 1``).
* ``-inf`` means "certainly failed" (``r = 0``).
* NaNs are rejected; positive values are rejected (reliability cannot
  exceed 1).

The three composition rules used throughout the paper are:

serial composition (Eq. (2))
    All blocks must work: ``r = prod r_i`` hence ``ell = sum ell_i``.

parallel composition of distinct replicas (inner product of Eq. (9))
    At least one block must work: ``r = 1 - prod (1 - r_i)``.

parallel composition of ``k`` identical replicas (Alg. 1 line 10)
    ``r = 1 - (1 - r0)**k``.

All functions accept floats or NumPy arrays and broadcast element-wise
where that makes sense; the ``*_many`` variants are the vectorized forms
used in the dynamic-programming inner loops.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "PERFECT",
    "check_logrel",
    "from_rate",
    "reliability",
    "failure",
    "log_failure",
    "from_reliability",
    "from_failure",
    "serial",
    "parallel",
    "parallel_k",
    "parallel_k_many",
    "log1mexp",
]

#: Log-reliability of a perfectly reliable block (r = 1).
PERFECT: float = 0.0


def check_logrel(ell: float) -> float:
    """Validate that *ell* is a legal log-reliability and return it.

    Parameters
    ----------
    ell:
        Candidate log-reliability.  Must satisfy ``ell <= 0`` (``-inf``
        allowed) and must not be NaN.

    Raises
    ------
    ValueError
        If *ell* is NaN or strictly positive.
    """
    if math.isnan(ell):
        raise ValueError("log-reliability must not be NaN")
    if ell > 0.0:
        raise ValueError(f"log-reliability must be <= 0, got {ell!r}")
    return ell


def from_rate(rate: float, duration: float) -> float:
    """Log-reliability of one operation under the Shatz–Wang model (Eq. (1)).

    An operation of duration ``d`` on a component with constant failure
    rate ``lambda`` succeeds with probability ``exp(-lambda * d)``, hence
    its log-reliability is simply ``-lambda * d``.

    Parameters
    ----------
    rate:
        Failure rate per time unit (``lambda >= 0``).
    duration:
        Duration of the operation in time units (``d >= 0``).
    """
    if rate < 0.0:
        raise ValueError(f"failure rate must be >= 0, got {rate!r}")
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0, got {duration!r}")
    return -rate * duration


def reliability(ell: float) -> float:
    """Reliability ``r = exp(ell)`` (loses precision for ``r`` near 1)."""
    return math.exp(ell)


def failure(ell: float) -> float:
    """Failure probability ``f = 1 - exp(ell)`` computed as ``-expm1(ell)``.

    Exact to machine precision even when ``f`` is tiny, which is the
    regime of every experiment in the paper (``lambda ~ 1e-8``).
    """
    return -math.expm1(ell)


def log_failure(ell: float) -> float:
    """``log(1 - exp(ell))``, i.e. the log of the failure probability.

    Uses the standard two-branch ``log1mexp`` trick (Mächler 2012) to stay
    accurate over the whole range of *ell*.
    """
    if ell == 0.0:
        return -math.inf
    if ell > -math.log(2.0):
        # 1 - exp(ell) is small: go through expm1.
        return math.log(-math.expm1(ell))
    # 1 - exp(ell) is close to 1: go through log1p.
    return math.log1p(-math.exp(ell))


def from_reliability(r: float) -> float:
    """Log-reliability of a plain probability *r* in ``[0, 1]``.

    Only use this at API boundaries (user-supplied reliabilities); prefer
    :func:`from_rate` or :func:`from_failure` internally.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"reliability must be in [0, 1], got {r!r}")
    if r == 0.0:
        return -math.inf
    return math.log(r)


def from_failure(f: float) -> float:
    """Log-reliability from a failure probability *f* in ``[0, 1]``.

    Computed as ``log1p(-f)`` which preserves tiny failure probabilities.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {f!r}")
    if f == 1.0:
        return -math.inf
    return math.log1p(-f)


def serial(ells: Iterable[float]) -> float:
    """Serial composition: every block must work (Eq. (2)).

    ``log prod r_i = sum ell_i``.  An empty series is perfectly reliable.
    """
    total = 0.0
    for ell in ells:
        total += check_logrel(ell)
    return total


def parallel(ells: Iterable[float]) -> float:
    """Parallel composition of distinct blocks: at least one must work.

    This is the inner factor of Eq. (9):
    ``r = 1 - prod_u (1 - r_u)``, computed in the log domain as
    ``log1p(-prod_u(-expm1(ell_u)))``.

    The failure product is accumulated in the *log* domain when any factor
    underflows, so stages with many very reliable replicas keep full
    precision.

    An empty parallel composition has no working path, so it returns
    ``-inf`` (reliability 0).
    """
    ells = [check_logrel(e) for e in ells]
    if not ells:
        return -math.inf
    # log failure probability of each branch:
    log_fs = [log_failure(e) for e in ells]
    log_prod_f = sum(log_fs)
    if log_prod_f == -math.inf:
        return PERFECT
    if log_prod_f == 0.0:
        return -math.inf  # every branch certainly fails
    # ell = log(1 - prod f) = log1p(-exp(log_prod_f))
    if log_prod_f > -math.log(2.0):
        return math.log(-math.expm1(log_prod_f))
    return math.log1p(-math.exp(log_prod_f))


def parallel_k(ell: float, k: int) -> float:
    """Parallel composition of ``k`` identical replicas.

    ``r = 1 - (1 - r0)**k`` — the replication factor of Alg. 1 line 10 /
    Alg. 2 line 13, where every replica of an interval has the same
    log-reliability on a homogeneous platform.

    Parameters
    ----------
    ell:
        Log-reliability of a single replica.
    k:
        Number of replicas (``k >= 1``).
    """
    check_logrel(ell)
    if k < 1:
        raise ValueError(f"replica count must be >= 1, got {k!r}")
    if k == 1:
        # The replica is the stage; as in parallel(), it certainly fails
        # once its reliability underflows to 0.
        return ell if math.exp(ell) > 0.0 else -math.inf
    lf = log_failure(ell)  # log(1 - r0)
    log_prod_f = k * lf
    if log_prod_f == -math.inf:
        return PERFECT
    if log_prod_f == 0.0:
        return -math.inf  # every replica certainly fails
    if log_prod_f > -math.log(2.0):
        return math.log(-math.expm1(log_prod_f))
    return math.log1p(-math.exp(log_prod_f))


# ---------------------------------------------------------------------------
# Vectorized variants (NumPy), used in DP inner loops.
# ---------------------------------------------------------------------------


def log1mexp(x: np.ndarray) -> np.ndarray:
    """Vectorized ``log(1 - exp(x))`` for ``x <= 0`` (Mächler's log1mexp)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x > -math.log(2.0)  # 1 - exp(x) small -> use expm1
    with np.errstate(divide="ignore", invalid="ignore"):
        out[small] = np.log(-np.expm1(x[small]))
        out[~small] = np.log1p(-np.exp(x[~small]))
    return out


def parallel_k_many(ell: np.ndarray | float, k: np.ndarray | int) -> np.ndarray:
    """Vectorized :func:`parallel_k` with broadcasting.

    ``ell`` and ``k`` broadcast against each other; entries of ``k`` must
    be ``>= 1`` and entries of ``ell`` must be ``<= 0``.
    """
    ell = np.asarray(ell, dtype=float)
    k = np.asarray(k)
    if np.any(ell > 0.0) or np.any(np.isnan(ell)):
        raise ValueError("log-reliabilities must be <= 0 and not NaN")
    if np.any(k < 1):
        raise ValueError("replica counts must be >= 1")
    lf = log1mexp(ell)  # log failure of one replica
    log_prod_f = np.asarray(k * lf, dtype=float)
    out = log1mexp(log_prod_f)
    # k * (-inf) = nan when k could be 0-d int; but k >= 1 so -inf stays.
    # A perfectly reliable replica (ell = 0) gives lf = -inf -> out = 0.
    out = np.where(np.isneginf(log_prod_f), 0.0, out)
    # A certainly-failed replica (ell = -inf) gives lf = 0 -> out = -inf.
    out = np.where(log_prod_f == 0.0, -np.inf, out)
    return out
