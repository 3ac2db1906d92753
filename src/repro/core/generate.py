"""Random chains and platforms following the paper's distributions (Section 8).

The experiments draw computation costs uniformly from ``[1, 100]`` and
communication costs from ``[1, 10]``; heterogeneous speeds come from
``[1, 100]``.  The paper does not state whether draws are integral; we
default to integers (typical of the authors' earlier generators and of
the plotted ranges) but expose ``integral=False`` for continuous draws.
The canonical experiment suites live in :mod:`repro.experiments.instances`;
these functions are the reusable building blocks, and
:func:`draw_uniform` is the shared draw primitive — the declarative
scenario layer (:mod:`repro.scenarios`) calls the same primitive with
the same argument order, which is what makes its re-expression of the
Section 8 suites bit-identical to the functions here.
"""

from __future__ import annotations

import numpy as np

from repro.core.chain import TaskChain
from repro.core.platform import Platform
from repro.util.rng import ensure_rng

__all__ = [
    "draw_uniform",
    "random_chain",
    "random_platform",
]


def draw_uniform(
    rng: np.random.Generator,
    low: float,
    high: float,
    size: "int | tuple[int, ...]",
    integral: bool,
) -> np.ndarray:
    """Inclusive uniform draw, integral or continuous.

    The one primitive behind every uniform cost/speed draw in the
    library.  Centralized so the per-instance generators here and the
    batched scenario generators consume the *same* numpy calls — a
    requirement for cross-layer bit-identity of seeded ensembles.
    """
    if integral:
        return rng.integers(int(low), int(high), size=size, endpoint=True).astype(float)
    return rng.uniform(low, high, size=size)


#: Backward-compatible private alias (pre-scenario releases used ``_draw``).
_draw = draw_uniform


def random_chain(
    n: int,
    rng: "int | None | np.random.Generator" = None,
    work_range: tuple[float, float] = (1.0, 100.0),
    output_range: tuple[float, float] = (1.0, 10.0),
    integral: bool = True,
    last_output_zero: bool = True,
) -> TaskChain:
    """Random task chain with the Section 8 cost distributions.

    Parameters
    ----------
    n:
        Number of tasks.
    rng:
        Seed or generator (see :func:`repro.util.rng.ensure_rng`).
    work_range, output_range:
        Inclusive draw ranges for ``w_i`` and ``o_i``.
    integral:
        Draw integer costs (default) or continuous ones.
    last_output_zero:
        Enforce the paper's ``o_n = 0`` convention (default).
    """
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n!r}")
    gen = ensure_rng(rng)
    work = _draw(gen, *work_range, size=n, integral=integral)
    output = _draw(gen, *output_range, size=n, integral=integral)
    if last_output_zero:
        output[-1] = 0.0
    return TaskChain(work=work, output=output)


def random_platform(
    p: int,
    rng: "int | None | np.random.Generator" = None,
    speed_range: tuple[float, float] = (1.0, 100.0),
    failure_rate: float = 1e-8,
    bandwidth: float = 1.0,
    link_failure_rate: float = 1e-5,
    max_replication: int = 3,
    integral_speeds: bool = True,
) -> Platform:
    """Random heterogeneous platform with the Section 8.2 distributions.

    Speeds are drawn from *speed_range*; processor failure rates are the
    constant *failure_rate* (the paper keeps ``lambda_u = 1e-8`` in the
    heterogeneous experiments; speed is the source of heterogeneity).
    """
    if p < 1:
        raise ValueError(f"platform needs at least one processor, got {p!r}")
    gen = ensure_rng(rng)
    speeds = _draw(gen, *speed_range, size=p, integral=integral_speeds)
    return Platform(
        speeds=speeds,
        failure_rates=[failure_rate] * p,
        bandwidth=bandwidth,
        link_failure_rate=link_failure_rate,
        max_replication=max_replication,
    )

