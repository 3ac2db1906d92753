"""Built-in scenarios: the paper's two suites plus five new families.

``section8-hom`` / ``section8-het`` re-express the hard-coded Section 8
suites of :mod:`repro.experiments.instances` as declarative specs; the
per-instance RNG mode makes their ensembles bit-identical to
``homogeneous_suite()`` / ``heterogeneous_suite()`` under the same seed
(a regression test pins this).  The remaining families push the
workload axes the paper never varied:

================== ================================================ ====
name               what it stresses                                 hom?
================== ================================================ ====
section8-hom       the paper's Section 8.1 suite                    yes
section8-het       the paper's Section 8.2 paired suite             no
scaling-stress     chain-size x processor-count sweep, heavy-tailed yes
                   lognormal work, batched generation
long-chain         120-task chains, bimodal work (many small tasks, yes
                   a few huge ones)
high-heterogeneity lognormal speeds spanning two decades plus       no
                   per-processor loguniform failure rates
unreliable-links   links 100x less reliable than Section 8, halved  yes
                   bandwidth, output sizes correlated with work
hot-spare          mostly-fragile processors with a low-lambda      no
                   spare subset (heterogeneous failure rates only)
================== ================================================ ====

All of them are available by name everywhere a scenario is accepted:
``run_sweep("long-chain", ...)``, ``run_crosscheck(scenario=...)``,
``python -m repro scenario run <name>``.
"""

from __future__ import annotations

from repro.scenarios.distributions import (
    Bimodal,
    Constant,
    Correlated,
    HotSpare,
    LogNormal,
    LogUniform,
    Uniform,
)
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SECTION8_HOM",
    "SECTION8_HET",
    "SCALING_STRESS",
    "LONG_CHAIN",
    "HIGH_HETEROGENEITY",
    "UNRELIABLE_LINKS",
    "HOT_SPARE",
]

#: Section 8.1 (Figures 6-11): 100 x 15 tasks on 10 unit-speed
#: processors, integer costs, lambda_p = 1e-8, lambda_l = 1e-5, K = 3.
SECTION8_HOM = ScenarioSpec(
    name="section8-hom",
    description="the paper's Section 8.1 homogeneous suite (Figs. 6-11)",
    n_instances=100,
    n_tasks=15,
    p=10,
    K=3,
    bandwidth=1.0,
    work=Uniform(1.0, 100.0, integral=True),
    output=Uniform(1.0, 10.0, integral=True),
    speed=Constant(1.0),
    proc_failure=Constant(1e-8),
    link_failure_rate=1e-5,
)

#: Section 8.2 (Figures 12-15): same chains, speeds ~ U[1, 100],
#: constant lambda_u, plus the speed-5 homogeneous counterpart.
SECTION8_HET = SECTION8_HOM.with_(
    name="section8-het",
    description="the paper's Section 8.2 heterogeneous paired suite (Figs. 12-15)",
    speed=Uniform(1.0, 100.0, integral=True),
    hom_counterpart_speed=5.0,
)

#: Chain-size x platform-size scaling sweep with heavy-tailed work.
SCALING_STRESS = ScenarioSpec(
    name="scaling-stress",
    description="chain-size x processor-count scaling sweep, lognormal work",
    n_instances=25,
    n_tasks=(20, 40, 80),
    p=(16, 32),
    K=3,
    work=LogNormal(mean=3.2, sigma=0.9, low=1.0, high=500.0),
    output=Uniform(1.0, 10.0),
    speed=Constant(1.0),
    proc_failure=Constant(1e-8),
    link_failure_rate=1e-5,
    rng_mode="batched",
)

#: Very long chains with bimodal work: mostly small tasks, ~15% huge.
LONG_CHAIN = ScenarioSpec(
    name="long-chain",
    description="120-task chains, bimodal work (many small tasks, a few huge)",
    n_instances=50,
    n_tasks=120,
    p=10,
    K=3,
    work=Bimodal(1.0, 20.0, 80.0, 100.0, weight=0.15, integral=True),
    output=Uniform(1.0, 10.0, integral=True),
    speed=Constant(1.0),
    proc_failure=Constant(1e-8),
    link_failure_rate=1e-5,
    rng_mode="batched",
)

#: Speeds spanning two decades and per-processor failure rates.
HIGH_HETEROGENEITY = ScenarioSpec(
    name="high-heterogeneity",
    description="lognormal speeds (two decades) + loguniform per-processor lambda",
    n_instances=50,
    n_tasks=15,
    p=10,
    K=3,
    work=Uniform(1.0, 100.0, integral=True),
    output=Uniform(1.0, 10.0, integral=True),
    speed=LogNormal(mean=2.3, sigma=1.0, low=1.0, high=300.0),
    proc_failure=LogUniform(1e-9, 1e-6),
    link_failure_rate=1e-5,
    rng_mode="batched",
)

#: Links are the weak point: lambda_l 100x Section 8, half bandwidth,
#: and data volume correlated with task weight.
UNRELIABLE_LINKS = ScenarioSpec(
    name="unreliable-links",
    description="lambda_l = 1e-3, halved bandwidth, output correlated with work",
    n_instances=50,
    n_tasks=15,
    p=10,
    K=3,
    bandwidth=0.5,
    work=Uniform(1.0, 100.0, integral=True),
    output=Correlated(1.0, 10.0, rho=0.8),
    speed=Constant(1.0),
    proc_failure=Constant(1e-8),
    link_failure_rate=1e-3,
)

#: Fragile fleet with a small low-lambda "hot spare" subset.
HOT_SPARE = ScenarioSpec(
    name="hot-spare",
    description="fragile processors (lambda 1e-5) with 3 hot spares at 1e-9",
    n_instances=50,
    n_tasks=15,
    p=10,
    K=3,
    work=Uniform(1.0, 100.0, integral=True),
    output=Uniform(1.0, 10.0, integral=True),
    speed=Constant(1.0),
    proc_failure=HotSpare(base=1e-5, spare=1e-9, n_spares=3),
    link_failure_rate=1e-5,
)


register_scenario(SECTION8_HOM, tags=("section8", "paper"))
register_scenario(SECTION8_HET, tags=("section8", "paper", "paired"))
register_scenario(SCALING_STRESS, tags=("scaling",))
register_scenario(LONG_CHAIN, tags=("scaling", "long-chain"))
register_scenario(HIGH_HETEROGENEITY, tags=("heterogeneity",))
register_scenario(UNRELIABLE_LINKS, tags=("links", "correlated"))
register_scenario(HOT_SPARE, tags=("reliability", "heterogeneity"))
