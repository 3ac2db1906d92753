"""Declarative draw distributions for scenario specs.

A :class:`Distribution` describes *how* one field of an instance
ensemble is drawn (task work, output sizes, processor speeds, failure
rates) without saying anything about when or with which stream — that
is the generator's job (:mod:`repro.scenarios.generate`).  Every
distribution draws through ``draw(rng, size)`` where ``size`` may be an
``int`` (one instance's vector, the per-instance RNG mode) or a shape
tuple (a whole ensemble matrix, the batched mode); the same object
therefore serves both generation modes.

Kinds
-----
``constant``
    Every value equals ``value``.  **Consumes no random draws**, which
    is what keeps constant-speed scenario generation bit-identical to
    the legacy suites (they never drew speeds either).
``uniform``
    Inclusive ``U[low, high]``; ``integral=True`` draws integers (the
    paper's Section 8 reading) via the shared
    :func:`repro.core.generate.draw_uniform` primitive.
``loguniform``
    ``10 ** U[log10(low), log10(high)]`` — the natural spread for
    failure rates ("per-processor heterogeneous" regimes).
``lognormal``
    ``exp(N(mean, sigma))`` with optional ``[low, high]`` clipping —
    heavy-tailed work/speed ensembles.
``bimodal``
    Mixture of two uniform modes: with probability ``weight`` draw from
    ``U[low2, high2]``, else from ``U[low1, high1]`` — "many small
    tasks, a few huge ones".
``correlated``
    Values in ``[low, high]`` rank-correlated with a *reference* field
    (work ↔ output coupling): per instance, the reference vector is
    min-max normalized to ``q`` in [0, 1] and blended with an
    independent ``U[0, 1]`` draw as ``|rho|*q + (1-|rho|)*u`` (``q``
    flipped for negative ``rho``).  ``rho = ±1`` is a monotone function
    of the reference; ``rho = 0`` is plain uniform.
``hot-spare``
    Failure-rate regime: the last ``n_spares`` processors are "hot
    spares" with rate ``spare`` (typically orders of magnitude below
    ``base``); the rest run at ``base``.  Deterministic — no draws.

Serialization: :func:`distribution_to_dict` /
:func:`distribution_from_value` define the dict/JSON/TOML schema used
by :class:`~repro.scenarios.spec.ScenarioSpec`.  A bare number is
shorthand for ``constant``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from repro.core.generate import draw_uniform

__all__ = [
    "Distribution",
    "Constant",
    "Uniform",
    "LogUniform",
    "LogNormal",
    "Bimodal",
    "Correlated",
    "HotSpare",
    "DIST_KINDS",
    "distribution_from_value",
    "distribution_to_dict",
]

Size = "int | tuple[int, ...]"


def _check_range(low: float, high: float, kind: str) -> None:
    if not (math.isfinite(low) and math.isfinite(high)) or not low <= high:
        raise ValueError(f"{kind} distribution needs finite low <= high, got [{low!r}, {high!r}]")


@dataclass(frozen=True)
class Distribution:
    """Base class: a named, serializable draw recipe."""

    kind: ClassVar[str] = ""

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        raise NotImplementedError

    @property
    def lowest(self) -> float:
        """The smallest value :meth:`draw` can return."""
        return float(self.low)

    @property
    def stochastic(self) -> bool:
        """False when :meth:`draw` never consumes the stream."""
        return True

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload


@dataclass(frozen=True)
class Constant(Distribution):
    kind: ClassVar[str] = "constant"
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"constant distribution needs a finite value, got {self.value!r}")

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        return np.full(size, float(self.value))

    @property
    def lowest(self) -> float:
        return float(self.value)

    @property
    def stochastic(self) -> bool:
        return False


@dataclass(frozen=True)
class Uniform(Distribution):
    kind: ClassVar[str] = "uniform"
    low: float
    high: float
    integral: bool = False

    def __post_init__(self) -> None:
        _check_range(self.low, self.high, self.kind)

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        return draw_uniform(rng, self.low, self.high, size, self.integral)

    @property
    def lowest(self) -> float:
        # draw_uniform truncates an integral draw's bounds toward zero.
        return float(int(self.low)) if self.integral else float(self.low)


@dataclass(frozen=True)
class LogUniform(Distribution):
    kind: ClassVar[str] = "loguniform"
    low: float
    high: float

    def __post_init__(self) -> None:
        _check_range(self.low, self.high, self.kind)
        if self.low <= 0:
            raise ValueError(f"loguniform needs low > 0, got {self.low!r}")

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        return 10.0 ** rng.uniform(math.log10(self.low), math.log10(self.high), size=size)


@dataclass(frozen=True)
class LogNormal(Distribution):
    kind: ClassVar[str] = "lognormal"
    mean: float
    sigma: float
    low: "float | None" = None
    high: "float | None" = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or not self.sigma >= 0:
            raise ValueError(
                f"lognormal needs finite mean and sigma >= 0, "
                f"got mean={self.mean!r}, sigma={self.sigma!r}"
            )
        if self.low is not None and self.high is not None and not self.low <= self.high:
            raise ValueError(f"lognormal clip needs low <= high, got [{self.low!r}, {self.high!r}]")

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        values = rng.lognormal(self.mean, self.sigma, size=size)
        if self.low is not None or self.high is not None:
            values = np.clip(values, self.low, self.high)
        return values

    @property
    def lowest(self) -> float:
        # An unclipped draw is positive: at least the smallest positive float.
        lowest = max(self.low or 0.0, math.nextafter(0.0, 1.0))
        return lowest if self.high is None else min(lowest, self.high)


@dataclass(frozen=True)
class Bimodal(Distribution):
    kind: ClassVar[str] = "bimodal"
    low1: float
    high1: float
    low2: float
    high2: float
    weight: float = 0.5
    integral: bool = False

    def __post_init__(self) -> None:
        _check_range(self.low1, self.high1, self.kind)
        _check_range(self.low2, self.high2, self.kind)
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"bimodal weight must be in [0, 1], got {self.weight!r}")

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        # Fixed consumption order (pick, mode 1, mode 2) so a given
        # stream state always yields the same ensemble.
        pick = rng.random(size) < self.weight
        first = draw_uniform(rng, self.low1, self.high1, size, self.integral)
        second = draw_uniform(rng, self.low2, self.high2, size, self.integral)
        return np.where(pick, second, first)

    @property
    def lowest(self) -> float:
        low = min(self.low1, self.low2)
        return float(int(low)) if self.integral else float(low)


@dataclass(frozen=True)
class Correlated(Distribution):
    kind: ClassVar[str] = "correlated"
    low: float
    high: float
    rho: float = 0.8

    def __post_init__(self) -> None:
        _check_range(self.low, self.high, self.kind)
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlated rho must be in [-1, 1], got {self.rho!r}")

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        raise ValueError(
            "a 'correlated' distribution needs a reference field; it is only "
            "valid for the scenario 'output' slot (correlated with work) and "
            "is drawn via draw_given()"
        )

    def draw_given(self, rng: np.random.Generator, reference: np.ndarray) -> np.ndarray:
        """Draw values rank-blended with *reference* (rows = instances)."""
        u = rng.uniform(size=reference.shape)
        lo = reference.min(axis=-1, keepdims=True)
        hi = reference.max(axis=-1, keepdims=True)
        span = np.where(hi > lo, hi - lo, 1.0)
        q = (reference - lo) / span
        if self.rho < 0:
            q = 1.0 - q
        t = abs(self.rho) * q + (1.0 - abs(self.rho)) * u
        return self.low + (self.high - self.low) * t


@dataclass(frozen=True)
class HotSpare(Distribution):
    kind: ClassVar[str] = "hot-spare"
    base: float
    spare: float
    n_spares: int = 1

    def __post_init__(self) -> None:
        if self.base < 0 or self.spare < 0:
            raise ValueError("hot-spare rates must be >= 0")
        if self.n_spares < 1:
            raise ValueError(f"hot-spare needs n_spares >= 1, got {self.n_spares!r}")

    def draw(self, rng: np.random.Generator, size: Size) -> np.ndarray:
        values = np.full(size, float(self.base))
        p = values.shape[-1]
        if self.n_spares > p:
            raise ValueError(
                f"hot-spare n_spares={self.n_spares} exceeds the platform's "
                f"{p} processors"
            )
        values[..., p - self.n_spares :] = float(self.spare)
        return values

    @property
    def lowest(self) -> float:
        return float(min(self.base, self.spare))

    @property
    def stochastic(self) -> bool:
        return False


DIST_KINDS: dict[str, type[Distribution]] = {
    cls.kind: cls
    for cls in (Constant, Uniform, LogUniform, LogNormal, Bimodal, Correlated, HotSpare)
}


def distribution_from_value(value: Any, field: str = "distribution") -> Distribution:
    """Build a :class:`Distribution` from its dict/number encoding.

    A bare number is shorthand for ``{"kind": "constant", "value": x}``;
    an existing :class:`Distribution` passes through.
    """
    if isinstance(value, Distribution):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Constant(float(value))
    if not isinstance(value, dict):
        raise ValueError(
            f"{field} must be a number or a dict with a 'kind', got {value!r}"
        )
    payload = dict(value)
    kind = payload.pop("kind", None)
    if kind not in DIST_KINDS:
        raise ValueError(
            f"{field} has unknown distribution kind {kind!r}; "
            f"available: {sorted(DIST_KINDS)}"
        )
    cls = DIST_KINDS[kind]
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(
            f"{field} ({kind}) got unknown parameters {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    try:
        return cls(**payload)
    except TypeError as exc:  # missing required parameter
        raise ValueError(f"{field} ({kind}): {exc}") from None


def distribution_to_dict(dist: Distribution) -> dict[str, Any]:
    """Inverse of :func:`distribution_from_value` (always the dict form)."""
    if not isinstance(dist, Distribution):
        raise TypeError(f"expected a Distribution, got {type(dist).__name__}")
    return dist.to_dict()
