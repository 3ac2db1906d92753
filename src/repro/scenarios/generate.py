"""Ensemble generation from scenario specs — columnar, two RNG modes.

Generation now produces :class:`repro.core.ensemble.Ensemble` objects
(struct-of-arrays, one row per instance) instead of per-instance
``TaskChain``/``Platform`` objects; a row is addressed by its index and
materializes lazily (:meth:`~repro.core.ensemble.Ensemble.chain`,
:meth:`~repro.core.ensemble.Ensemble.platform`), so a sweep served from
a warm cache never constructs a model object at all.  The two RNG modes
keep their contracts exactly — only the storage changed:

``per-instance`` (default)
    ``spawn`` one child stream per instance off the master seed and
    draw each instance's fields from its own stream in the legacy
    order: work, then output, then speeds, then failure rates —
    constant distributions consume nothing.  The materialized rows
    reproduce :func:`repro.experiments.instances.homogeneous_suite` /
    :func:`~repro.experiments.instances.heterogeneous_suite` **bit for
    bit** for the ``section8-*`` specs (checked by
    ``tests/test_scenarios.py`` and ``tests/test_ensemble.py``), and
    extending ``n_instances`` never changes earlier instances.

``batched``
    ``spawn`` one stream per *field* (work, output, speed, rate — in
    that fixed order) and draw whole ``(n_instances, n_tasks)`` /
    ``(n_instances, p)`` matrices in single numpy calls.  The matrices
    *are* the ensemble storage — no per-instance assembly pass at all,
    which is where the order-of-magnitude generation speedup of
    ``benchmarks/bench_scenario_generation.py`` comes from; the
    per-instance prefix property does not hold.

Sweep-axis specs expand into their concrete variants first
(:meth:`~repro.scenarios.spec.ScenarioSpec.variants`); each variant
gets an independent seed derived via :func:`repro.util.rng.stable_seed`
(a spec with no axes passes the caller's seed straight through, which
is what keeps the Section 8 re-expressions seed-compatible) and
becomes one :class:`Ensemble` — variants differ in dimensions, so they
cannot share one rectangular array block.

The pre-columnar per-instance list API (``generate_instances``) has
been removed after its one-release deprecation window; call
:func:`generate_ensemble` / :func:`generate_ensembles` and keep the
columnar form, or :func:`materialize_instances` where per-instance
objects are genuinely needed.
"""

from __future__ import annotations

import numpy as np

from repro.core.ensemble import Ensemble
from repro.scenarios.distributions import Constant
from repro.scenarios.registry import Scenario, get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.util.rng import ensure_rng, spawn, stable_seed

__all__ = [
    "generate_ensemble",
    "generate_ensembles",
    "resolve_scenario",
]


def resolve_scenario(
    scenario: "str | ScenarioSpec | Scenario",
) -> "tuple[ScenarioSpec, Scenario | None]":
    """Normalize a scenario argument to ``(spec, registry entry or None)``.

    Accepts a registry name, a bare :class:`ScenarioSpec` (e.g. loaded
    from a file), or a :class:`Scenario`.  Unknown names raise
    :class:`~repro.scenarios.registry.UnknownScenarioError`.
    """
    if isinstance(scenario, str):
        entry = get_scenario(scenario)
        return entry.spec, entry
    if isinstance(scenario, Scenario):
        return scenario.spec, scenario
    if isinstance(scenario, ScenarioSpec):
        return scenario, None
    raise TypeError(
        f"scenario must be a registry name, ScenarioSpec, or Scenario, "
        f"got {type(scenario).__name__}"
    )


def generate_ensembles(
    scenario: "str | ScenarioSpec | Scenario",
    n_instances: "int | None" = None,
    seed: int = 0,
) -> "list[Ensemble]":
    """Generate the columnar ensembles described by *scenario*.

    Returns one :class:`~repro.core.ensemble.Ensemble` per concrete
    variant, in variant order (plain specs yield a single-element
    list).  Paired specs produce paired ensembles: their rows hold the
    heterogeneous side, ``ensemble.hom_platform`` /
    ``ensemble.hom_counterpart()`` the Section 8.2 counterpart.
    """
    spec, _ = resolve_scenario(scenario)
    if n_instances is not None:
        spec = spec.with_(n_instances=n_instances)
    variants = spec.variants()
    if len(variants) == 1:
        return [_generate_concrete(variants[0], seed)]
    return [
        _generate_concrete(sub, stable_seed("scenario-variant", seed, vi))
        for vi, sub in enumerate(variants)
    ]


def generate_ensemble(
    scenario: "str | ScenarioSpec | Scenario",
    n_instances: "int | None" = None,
    seed: int = 0,
) -> Ensemble:
    """Generate a single-variant scenario's :class:`Ensemble`.

    Sweep-axis specs describe several differently-shaped ensembles and
    raise — iterate :func:`generate_ensembles` for those.
    """
    ensembles = generate_ensembles(scenario, n_instances=n_instances, seed=seed)
    if len(ensembles) != 1:
        raise ValueError(
            f"scenario expands to {len(ensembles)} variants; "
            f"use generate_ensembles() for sweep-axis specs"
        )
    return ensembles[0]


def materialize_instances(
    scenario: "str | ScenarioSpec | Scenario",
    n_instances: "int | None" = None,
    seed: int = 0,
) -> list:
    """Generate and materialize every instance.

    Materializes every row: ``(chain, platform)`` tuples for plain
    specs, :class:`~repro.experiments.instances.HetInstancePair`
    records for paired specs, variants concatenated in order — exactly
    the shapes the pre-columnar generator produced, bit for bit.  For
    code that genuinely wants objects (tiny ensembles, tests); sweeps
    should keep the columnar :class:`Ensemble`.
    """
    out: list = []
    for ensemble in generate_ensembles(scenario, n_instances=n_instances, seed=seed):
        out.extend(ensemble.materialize())
    return out


def _constant_rate(spec: ScenarioSpec) -> float:
    """The counterpart platform's failure rate.

    Section 8.2 keeps ``lambda_u`` constant; any other regime (even a
    deterministic one like hot-spare) has no single rate the
    homogeneous counterpart could honestly carry, so paired specs
    require a :class:`~repro.scenarios.distributions.Constant`.
    """
    if not isinstance(spec.proc_failure, Constant):
        raise ValueError(
            f"paired scenario {spec.name!r} needs a constant proc_failure "
            f"regime for the homogeneous counterpart, got "
            f"{spec.proc_failure.kind!r}"
        )
    return float(spec.proc_failure.value)


def _shared_platform_rows(spec: ScenarioSpec) -> "tuple[np.ndarray, np.ndarray] | None":
    """One ``(1, p)`` speed/rate row pair when nothing platform-side is
    stochastic (matches the legacy suites, which built one Platform)."""
    if spec.speed.stochastic or spec.proc_failure.stochastic:
        return None
    speeds = np.asarray(spec.speed.draw(np.random.default_rng(0), spec.p), dtype=float)
    rates = np.asarray(spec.proc_failure.draw(np.random.default_rng(0), spec.p), dtype=float)
    return speeds.reshape(1, -1), rates.reshape(1, -1)


def _generate_concrete(spec: ScenarioSpec, seed: int) -> Ensemble:
    """Generate one concrete (scalar-axis) variant's ensemble."""
    if spec.paired:
        _constant_rate(spec)  # paired specs need a single honest rate
    if spec.rng_mode == "per-instance":
        return _generate_per_instance(spec, seed)
    return _generate_batched(spec, seed)


def _generate_per_instance(spec: ScenarioSpec, seed: int) -> Ensemble:
    master = ensure_rng(seed)
    streams = spawn(master, spec.n_instances)
    m, n, p = spec.n_instances, spec.n_tasks, spec.p

    work = np.empty((m, n), dtype=float)
    output = np.empty((m, n), dtype=float)
    shared = _shared_platform_rows(spec)
    if shared is None:
        speeds = np.empty((m, p), dtype=float)
        rates = np.empty((m, p), dtype=float)
    else:
        speeds, rates = shared

    for i, rng in enumerate(streams):
        # Legacy draw order: work, output (chain), then platform fields.
        work[i] = spec.work.draw(rng, n)
        if hasattr(spec.output, "draw_given"):
            output[i] = spec.output.draw_given(rng, work[i])
        else:
            output[i] = spec.output.draw(rng, n)
        if shared is None:
            speeds[i] = spec.speed.draw(rng, p)
            rates[i] = spec.proc_failure.draw(rng, p)
    output[:, -1] = 0.0

    return Ensemble(
        work=work,
        output=output,
        speeds=speeds,
        failure_rates=rates,
        bandwidth=spec.bandwidth,
        link_failure_rate=spec.link_failure_rate,
        max_replication=spec.K,
        hom_counterpart_speed=spec.hom_counterpart_speed,
    )


def _generate_batched(spec: ScenarioSpec, seed: int) -> Ensemble:
    master = ensure_rng(seed)
    # One stream per field, spawned in fixed order — n_instances does
    # not influence the spawn, only how much each stream is consumed.
    work_rng, out_rng, speed_rng, rate_rng = spawn(master, 4)
    m, n, p = spec.n_instances, spec.n_tasks, spec.p

    work = np.asarray(spec.work.draw(work_rng, (m, n)), dtype=float)
    if hasattr(spec.output, "draw_given"):
        output = np.asarray(spec.output.draw_given(out_rng, work), dtype=float)
    else:
        output = np.asarray(spec.output.draw(out_rng, (m, n)), dtype=float)
    output[:, -1] = 0.0

    shared = _shared_platform_rows(spec)
    if shared is None:
        speeds = np.asarray(spec.speed.draw(speed_rng, (m, p)), dtype=float)
        rates = np.asarray(spec.proc_failure.draw(rate_rng, (m, p)), dtype=float)
    else:
        speeds, rates = shared

    return Ensemble(
        work=work,
        output=output,
        speeds=speeds,
        failure_rates=rates,
        bandwidth=spec.bandwidth,
        link_failure_rate=spec.link_failure_rate,
        max_replication=spec.K,
        hom_counterpart_speed=spec.hom_counterpart_speed,
    )
