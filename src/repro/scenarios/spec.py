"""The declarative scenario specification and its dict/JSON/TOML codec.

A :class:`ScenarioSpec` fully describes an instance *ensemble*: how many
instances, the chain and platform dimensions, and one
:class:`~repro.scenarios.distributions.Distribution` per stochastic
field (work, output sizes, processor speeds, processor failure rates).
Specs are frozen, validated on construction, hashable by content
(:func:`scenario_hash`), and round-trip losslessly through
``repro.io``'s tagged-JSON format as well as plain TOML files — the
same spec can live in the registry, in a file next to an experiment,
or inline in a test.

Sweep axes
----------
``n_tasks``, ``p``, and ``bandwidth`` accept a tuple of values instead
of a scalar; the spec then describes the **cross product** of concrete
sub-ensembles (:meth:`ScenarioSpec.variants`), each with
``n_instances`` instances — chain-size and processor-count sweeps as
data, not loops.

Paired scenarios
----------------
``hom_counterpart_speed`` switches the spec into Section 8.2 "paired"
form: every instance carries its heterogeneous platform *and* a
homogeneous counterpart of the given speed sharing bandwidth, failure
rates, and K — the shape consumed by the het experiments.

RNG modes
---------
``rng_mode="per-instance"`` (default) gives every instance its own
child stream via :func:`repro.util.rng.spawn` with the legacy draw
order — this is what makes ``section8-hom``/``section8-het`` ensembles
bit-identical to :func:`repro.experiments.instances.homogeneous_suite`
and :func:`~repro.experiments.instances.heterogeneous_suite`, and it
keeps the suite-prefix property (extending ``n_instances`` never
changes earlier instances).  ``rng_mode="batched"`` derives one stream
per *field* and draws whole ``(n_instances, n_tasks)`` matrices in
single numpy calls — several times faster for large ensembles (see
``benchmarks/bench_scenario_generation.py``) at the cost of the prefix
property.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.scenarios.distributions import (
    Constant,
    Correlated,
    Distribution,
    Uniform,
    distribution_from_value,
    distribution_to_dict,
)
from repro.util.hashing import content_hash

__all__ = [
    "ScenarioSpec",
    "scenario_hash",
    "spec_from_dict",
    "spec_from_payload",
    "spec_is_homogeneous",
    "load_spec",
]

RNG_MODES = ("per-instance", "batched")

#: Fields that accept either a scalar or a tuple of sweep values.
_AXIS_FIELDS = ("n_tasks", "p", "bandwidth")

#: Distribution-valued fields, in the order the generator consumes them.
_DIST_FIELDS = ("work", "output", "speed", "proc_failure")


#: Distribution fields whose every draw must be > 0; the others' must
#: be >= 0.
_POSITIVE_FIELDS = ("work", "speed")


def _as_axis(value: Any, name: str, *, integral: bool) -> Any:
    """Validate a scalar-or-tuple sweepable field (every value > 0),
    normalizing a list to a tuple."""

    def one(v: Any) -> Any:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be numeric, got {v!r}")
        if integral and int(v) != v:
            raise ValueError(f"{name} must be an integer, got {v!r}")
        v = int(v) if integral else float(v)
        if not v > 0:
            raise ValueError(f"{name} must be > 0, got {v!r}")
        return v

    if isinstance(value, (list, tuple)):
        if not value:
            raise ValueError(f"{name} sweep axis must not be empty")
        return tuple(one(v) for v in value)
    return one(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative instance-ensemble description.

    Attributes
    ----------
    name:
        Identifier (registry key for built-ins; free-form for files).
    description:
        Human-readable summary (cosmetic — not part of the content
        hash).
    n_instances:
        Instances per concrete variant.
    n_tasks, p, bandwidth:
        Chain length, processor count, link bandwidth — scalar or a
        tuple of sweep values (see :meth:`variants`).
    K:
        Replication bound (bounded multi-port constant).
    work, output, speed, proc_failure:
        Field distributions.  ``output`` may be
        :class:`~repro.scenarios.distributions.Correlated` (with work);
        the others may not.
    link_failure_rate:
        Common link failure rate ``lambda_link``.
    hom_counterpart_speed:
        When set, the ensemble is *paired* (Section 8.2 shape): each
        instance also gets a homogeneous counterpart platform of this
        speed.
    rng_mode:
        ``"per-instance"`` (legacy-compatible) or ``"batched"``
        (vectorized) — see the module docstring.
    """

    name: str
    description: str = ""
    n_instances: int = 100
    n_tasks: "int | tuple[int, ...]" = 15
    p: "int | tuple[int, ...]" = 10
    K: int = 3
    bandwidth: "float | tuple[float, ...]" = 1.0
    work: Distribution = field(default_factory=lambda: Uniform(1.0, 100.0, integral=True))
    output: Distribution = field(default_factory=lambda: Uniform(1.0, 10.0, integral=True))
    speed: Distribution = field(default_factory=lambda: Constant(1.0))
    proc_failure: Distribution = field(default_factory=lambda: Constant(1e-8))
    link_failure_rate: float = 1e-5
    hom_counterpart_speed: "float | None" = None
    rng_mode: str = "per-instance"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.n_instances, int) or self.n_instances < 1:
            raise ValueError(f"n_instances must be an integer >= 1, got {self.n_instances!r}")
        for name in _AXIS_FIELDS:
            value = _as_axis(getattr(self, name), name, integral=name != "bandwidth")
            object.__setattr__(self, name, value)
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError(f"K must be an integer >= 1, got {self.K!r}")
        for name in _DIST_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, Distribution):
                raise ValueError(
                    f"{name} must be a Distribution (or its dict form via "
                    f"spec_from_dict), got {type(value).__name__}"
                )
            if name != "output" and isinstance(value, Correlated):
                raise ValueError(
                    f"'correlated' is only valid for the output field "
                    f"(correlated with work), not {name!r}"
                )
            positive = name in _POSITIVE_FIELDS
            if not (value.lowest > 0 if positive else value.lowest >= 0):
                raise ValueError(
                    f"{name} values must be {'> 0' if positive else '>= 0'}, but its "
                    f"{value.kind} distribution can draw {value.lowest!r}"
                )
        if not (
            isinstance(self.link_failure_rate, (int, float))
            and math.isfinite(self.link_failure_rate)
            and self.link_failure_rate >= 0
        ):
            raise ValueError(
                f"link_failure_rate must be a finite number >= 0, got {self.link_failure_rate!r}"
            )
        if self.hom_counterpart_speed is not None and not self.hom_counterpart_speed > 0:
            raise ValueError(
                f"hom_counterpart_speed must be > 0 (or None), got {self.hom_counterpart_speed!r}"
            )
        if self.rng_mode not in RNG_MODES:
            raise ValueError(f"rng_mode must be one of {RNG_MODES}, got {self.rng_mode!r}")

    # -- structure -------------------------------------------------------

    @property
    def paired(self) -> bool:
        """True for Section 8.2-shaped ensembles (het + hom counterpart)."""
        return self.hom_counterpart_speed is not None

    @property
    def axes(self) -> dict[str, tuple]:
        """The tuple-valued sweep axes, by field name."""
        return {
            name: getattr(self, name)
            for name in _AXIS_FIELDS
            if isinstance(getattr(self, name), tuple)
        }

    def variants(self) -> "list[ScenarioSpec]":
        """Expand sweep axes into concrete (scalar-axis) sub-specs.

        The cross product is enumerated in fixed field order (n_tasks,
        then p, then bandwidth), each variant named
        ``base[n_tasks=..,p=..]``.  A spec with no axes returns
        ``[self]`` unchanged — so single-ensemble scenarios keep their
        exact name and seed behaviour.
        """
        axes = self.axes
        if not axes:
            return [self]
        variants = [self]
        for name, values in axes.items():
            variants = [
                v.with_(
                    name=f"{v.name}[{name}={value}]" if len(values) > 1 else v.name,
                    **{name: value},
                )
                for v in variants
                for value in values
            ]
        return variants

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Encode as the tagged payload consumed by ``repro.io``."""
        payload: dict[str, Any] = {"type": "ScenarioSpec"}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in _DIST_FIELDS:
                value = distribution_to_dict(value)
            elif isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload


def spec_from_dict(payload: dict[str, Any]) -> ScenarioSpec:
    """Build a validated :class:`ScenarioSpec` from its dict encoding.

    Unknown keys are rejected (typos in hand-written spec files should
    fail loudly, not silently generate a different workload).
    Distribution fields accept the shorthand forms of
    :func:`~repro.scenarios.distributions.distribution_from_value`.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"scenario spec must be a dict, got {type(payload).__name__}")
    data = {k: v for k, v in payload.items() if k not in ("type", "repro_format")}
    known = {f.name for f in dataclasses.fields(ScenarioSpec)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"scenario spec has unknown fields {sorted(unknown)}; known: {sorted(known)}"
        )
    for name in _DIST_FIELDS:
        if name in data:
            data[name] = distribution_from_value(data[name], field=name)
    try:
        return ScenarioSpec(**data)
    except TypeError as exc:  # e.g. missing 'name'
        raise ValueError(f"invalid scenario spec: {exc}") from None


#: Alias used by ``repro.io.from_dict`` dispatch.
spec_from_payload = spec_from_dict


def load_spec(path: "str | os.PathLike[str]") -> ScenarioSpec:
    """Load a scenario spec from a ``.json`` or ``.toml`` file."""
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            raise ValueError(
                f"cannot load {path}: TOML specs need Python >= 3.11 (tomllib); "
                f"use the JSON form instead"
            ) from None
        payload = tomllib.loads(text)
    else:
        payload = json.loads(text)
    return spec_from_dict(payload)


def scenario_hash(spec: ScenarioSpec) -> str:
    """Content hash of the spec's *generative* fields.

    ``name``, ``description``, and ``n_instances`` are excluded: the
    first two are cosmetic, and excluding the instance count means a
    sweep over an extended ensemble (per-instance mode is
    prefix-stable) still hits the per-unit result cache for the
    instances it shares with earlier runs.
    """
    payload = spec.to_dict()
    for key in ("name", "description", "n_instances"):
        payload.pop(key, None)
    return content_hash(payload)


def spec_is_homogeneous(spec: ScenarioSpec) -> bool:
    """True when every generated platform is homogeneous.

    Constant speeds and constant processor failure rates on an unpaired
    spec — the condition under which Section 5 exact methods
    (``homogeneous_only`` capability) apply to the whole ensemble.
    """
    return (
        isinstance(spec.speed, Constant)
        and isinstance(spec.proc_failure, Constant)
        and not spec.paired
    )
