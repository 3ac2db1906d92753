"""Executable NP-completeness reductions (Theorems 3 and 5).

Each builder turns a source-problem instance into the mapping instance
of the corresponding proof, including the decision thresholds, so tests
can check the equivalence *"source instance solvable iff mapping
instance achievable"* with the library's exact solvers.

Fidelity notes
--------------
* Theorem 3 (2-PARTITION -> homogeneous (reliability, latency)): built
  exactly as printed — ``3n + 1`` tasks, ``6n`` processors, ``K = 2``,
  ``lambda = 1e-8 * 10^-n * a_max^-3n``, perfectly reliable links
  (``rcomm = 1``), latency bound ``L = (n+1)B + n/2 + 3T``, and the
  reliability threshold of the proof.  All reliabilities live at scales
  like ``1 - 1e-30``: only the log-domain arithmetic of
  :mod:`repro.util.logrel` makes the instance decidable in double
  precision (the decisive differences are ~1e-3 *relative* to the log).
* Theorem 5 (n-way equal-sum partition -> heterogeneous reliability):
  the printed parameters set ``w_i = 1/n`` yet the proof's algebra
  treats every task's execution time as 1 (e.g. ``r_{u,i} =
  e^{-lambda gamma^{a_u}}``); with the literal ``1/n`` the threshold
  would not discriminate (every allocation's failure shrinks by
  ``n^3``).  We therefore build tasks of work 1 — the form under which
  every inequality of the proof holds as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.chain import TaskChain
from repro.core.platform import Platform
from repro.util import logrel

__all__ = [
    "Theorem3Instance",
    "Theorem5Instance",
    "build_theorem3_instance",
    "build_theorem5_instance",
]


@dataclass(frozen=True)
class Theorem3Instance:
    """The homogeneous (reliability | latency) instance of Theorem 3."""

    chain: TaskChain
    platform: Platform
    max_latency: float
    min_log_reliability: float
    #: Parameters of the construction, for inspection.
    B: float
    lam: float
    T: int


def build_theorem3_instance(  # repro-lint: disable=API001 §6 reduction
    a: list[int],
) -> Theorem3Instance:
    """Build instance ``I2`` of the Theorem 3 proof from 2-PARTITION
    instance ``I1 = {a_1 .. a_n}`` (positive integers, even total)."""
    if not a or any(v <= 0 or not isinstance(v, int) for v in a):
        raise ValueError("2-PARTITION values must be positive integers")
    n = len(a)
    total = sum(a)
    if total % 2:
        raise ValueError("2-PARTITION total must be even (odd totals are trivial)")
    T = total // 2
    a_min, a_max = min(a), max(a)
    lam = 1e-8 * (10.0 ** -n) * float(a_max) ** (-3 * n)
    B = (n / 4 + n * a_max**2 + T + 2) / (2 * a_min)

    work: list[float] = []
    output: list[float] = []
    for ai in a:
        work += [B, 0.5, float(ai)]
        output += [0.0, float(ai), 0.0]
    work.append(B)
    output.append(0.0)
    chain = TaskChain(work=work, output=output)
    platform = Platform.homogeneous_platform(
        6 * n,
        speed=1.0,
        failure_rate=lam,
        bandwidth=1.0,
        link_failure_rate=0.0,  # rcomm_i = 1 in the construction
        max_replication=2,
    )
    max_latency = (n + 1) * B + n / 2 + 3 * T

    # Reliability threshold of the proof:
    #   r = (1 - (1 - e^{-lam B})^2)^{n+1}
    #       * (1 - lam^2 (n/4 + sum a_i^2 + T) - lam^4 2^{2n} (a_max+1)^n)
    ell_B = (n + 1) * logrel.parallel_k(-lam * B, 2)
    slack = lam**2 * (n / 4 + sum(v * v for v in a) + T) + lam**4 * (
        2.0 ** (2 * n)
    ) * float(a_max + 1) ** n
    min_log_reliability = ell_B + math.log1p(-slack)
    return Theorem3Instance(
        chain=chain,
        platform=platform,
        max_latency=max_latency,
        min_log_reliability=min_log_reliability,
        B=B,
        lam=lam,
        T=T,
    )


@dataclass(frozen=True)
class Theorem5Instance:
    """The heterogeneous reliability instance of Theorem 5."""

    chain: TaskChain
    platform: Platform
    min_log_reliability: float
    lam: float
    gamma: float
    T: int


def build_theorem5_instance(  # repro-lint: disable=API001 §6 reduction
    a: list[int],
) -> Theorem5Instance:
    """Build instance ``I2`` of the Theorem 5 proof from the ``3n``
    numbers ``a`` (positive integers with ``sum = n * T``)."""
    if not a or len(a) % 3 or any(v <= 0 or not isinstance(v, int) for v in a):
        raise ValueError("need 3n positive integers")
    n = len(a) // 3
    total = sum(a)
    if total % n:
        raise ValueError(f"sum {total} is not divisible by n = {n}")
    T = total // n
    if T < 2:
        raise ValueError("T must be >= 2 for gamma to be defined")
    lam = 1e-8 / (n * T * T)
    gamma = 1.0 + 1.0 / (2.0 * (T - 1))

    chain = TaskChain(work=[1.0] * n, output=[0.0] * n)
    platform = Platform(
        speeds=[1.0] * (3 * n),
        failure_rates=[lam * gamma ** float(au) for au in a],
        bandwidth=1.0,
        link_failure_rate=0.0,
        max_replication=3,
    )
    # Threshold: r = (1 - lam^3 gamma^T)^n.
    min_log_reliability = n * math.log1p(-(lam**3) * gamma**T)
    return Theorem5Instance(
        chain=chain,
        platform=platform,
        min_log_reliability=min_log_reliability,
        lam=lam,
        gamma=gamma,
        T=T,
    )
