"""Random instance suites with the Section 8 distributions.

Homogeneous experiments (Section 8.1): 100 instances of 15 tasks on 10
processors; ``w ~ U[1, 100]``, ``o ~ U[1, 10]`` (integers), speed 1,
bandwidth 1, ``lambda_p = 1e-8``, ``lambda_l = 1e-5``, ``K = 3``.

Heterogeneous experiments (Section 8.2): same chains; processor speeds
``~ U[1, 100]``, constant ``lambda_u = 1e-8``; and for each instance a
*homogeneous counterpart* platform of speed 5 ("a second instance is
created with the same chain of tasks and a homogeneous platform of
speed 5").

These two suites are also available declaratively as the registered
scenarios ``"section8-hom"`` and ``"section8-het"``
(:mod:`repro.scenarios.builtin`); the scenario layer's per-instance RNG
mode reproduces the functions here **bit for bit** under the same seed
— its columnar :class:`repro.core.ensemble.Ensemble` rows materialize
to exactly these objects (``tests/test_scenarios.py`` and
``tests/test_ensemble.py`` pin the equivalence), so the two code paths
cross-check each other.  Prefer the scenario form for anything beyond
the paper's exact suites (new distributions, sweeps, paired regimes);
the functions below remain the canonical Section 8 reference
implementation, deliberately untouched by the columnar refactor.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.core.chain import TaskChain
from repro.core.generate import random_chain, random_platform
from repro.core.platform import Platform
from repro.util.rng import ensure_rng, spawn

__all__ = [
    "HOM_DEFAULTS",
    "HET_DEFAULTS",
    "HetInstancePair",
    "homogeneous_suite",
    "heterogeneous_suite",
]

#: Section 8.1 parameters.
HOM_DEFAULTS = dict(
    n_instances=100,
    n_tasks=15,
    p=10,
    K=3,
    speed=1.0,
    bandwidth=1.0,
    proc_failure_rate=1e-8,
    link_failure_rate=1e-5,
    work_range=(1.0, 100.0),
    output_range=(1.0, 10.0),
)

#: Section 8.2 parameters (hom counterpart speed included).
HET_DEFAULTS = dict(
    n_instances=100,
    n_tasks=15,
    p=10,
    K=3,
    speed_range=(1.0, 100.0),
    hom_speed=5.0,
    bandwidth=1.0,
    proc_failure_rate=1e-8,
    link_failure_rate=1e-5,
    work_range=(1.0, 100.0),
    output_range=(1.0, 10.0),
)


def homogeneous_suite(  # repro-lint: disable=API001 §8 reference suite, pins the scenarios
    n_instances: int = 100,
    n_tasks: int = 15,
    p: int = 10,
    K: int = 3,
    seed: int = 0,
    speed: float = 1.0,
    bandwidth: float = 1.0,
    proc_failure_rate: float = 1e-8,
    link_failure_rate: float = 1e-5,
    work_range: tuple[float, float] = (1.0, 100.0),
    output_range: tuple[float, float] = (1.0, 10.0),
) -> list[tuple[TaskChain, Platform]]:
    """The Section 8.1 instance suite (seeded, reproducible).

    Each instance gets an independent child RNG stream, so truncating
    or extending the suite never changes earlier instances.
    """
    master = ensure_rng(seed)
    streams = spawn(master, n_instances)
    platform = Platform.homogeneous_platform(
        p,
        speed=speed,
        failure_rate=proc_failure_rate,
        bandwidth=bandwidth,
        link_failure_rate=link_failure_rate,
        max_replication=K,
    )
    return [
        (
            random_chain(
                n_tasks, rng, work_range=work_range, output_range=output_range
            ),
            platform,
        )
        for rng in streams
    ]


@dataclass(frozen=True)
class HetInstancePair:
    """One Section 8.2 instance: a chain with its heterogeneous platform
    and the homogeneous counterpart of speed 5."""

    chain: TaskChain
    het_platform: Platform
    hom_platform: Platform


def heterogeneous_suite(  # repro-lint: disable=API001 §8 reference suite, pins the scenarios
    n_instances: int = 100,
    n_tasks: int = 15,
    p: int = 10,
    K: int = 3,
    seed: int = 0,
    speed_range: tuple[float, float] = (1.0, 100.0),
    hom_speed: float = 5.0,
    bandwidth: float = 1.0,
    proc_failure_rate: float = 1e-8,
    link_failure_rate: float = 1e-5,
    work_range: tuple[float, float] = (1.0, 100.0),
    output_range: tuple[float, float] = (1.0, 10.0),
) -> list[HetInstancePair]:
    """The Section 8.2 paired suite (seeded, reproducible)."""
    master = ensure_rng(seed)
    streams = spawn(master, n_instances)
    hom_platform = Platform.homogeneous_platform(
        p,
        speed=hom_speed,
        failure_rate=proc_failure_rate,
        bandwidth=bandwidth,
        link_failure_rate=link_failure_rate,
        max_replication=K,
    )
    pairs = []
    for rng in streams:
        chain = random_chain(
            n_tasks, rng, work_range=work_range, output_range=output_range
        )
        het = random_platform(
            p,
            rng,
            speed_range=speed_range,
            failure_rate=proc_failure_rate,
            bandwidth=bandwidth,
            link_failure_rate=link_failure_rate,
            max_replication=K,
        )
        pairs.append(HetInstancePair(chain, het, hom_platform))
    return pairs
