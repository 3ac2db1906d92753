"""Scenario registry: named workloads with capability metadata.

Mirrors the method registry of :mod:`repro.experiments.methods`:
scenarios live in a process-wide registry so the harness, the CLI, the
cross-check, and the cache can all refer to a workload *by name* — and
so cache keys and worker processes deal in strings, not objects.

A :class:`Scenario` couples a :class:`~repro.scenarios.spec.ScenarioSpec`
with capability metadata:

* ``homogeneous`` — every generated platform is homogeneous, so the
  Section 5 exact methods (``Method.homogeneous_only``) apply to the
  whole ensemble.  Derived from the spec
  (:func:`~repro.scenarios.spec.spec_is_homogeneous`), never declared,
  so the harness's exact-method gating cannot be told otherwise.
* ``tags`` — free-form labels (``"section8"``, ``"scaling"``, ...) for
  discovery in ``repro scenario list``.

Extending the registry::

    from repro.scenarios import ScenarioSpec, register_scenario

    register_scenario(
        ScenarioSpec(name="my-workload", n_tasks=30, ...),
        tags=("custom",),
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.scenarios.spec import ScenarioSpec, spec_is_homogeneous

__all__ = [
    "Scenario",
    "SCENARIOS",
    "UnknownScenarioError",
    "get_scenario",
    "register_scenario",
]


class UnknownScenarioError(KeyError, ValueError):
    """Raised when a scenario name is not in the registry.

    Like :class:`~repro.experiments.methods.UnknownMethodError`, it
    subclasses both :class:`KeyError` (the registry is a mapping) and
    :class:`ValueError` (argument validation), so callers catching
    either keep working.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class Scenario:
    """A registered workload: spec plus capability metadata."""

    spec: ScenarioSpec
    tags: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def homogeneous(self) -> bool:
        return spec_is_homogeneous(self.spec)

    @property
    def paired(self) -> bool:
        return self.spec.paired

    def generate(self, n_instances: "int | None" = None, seed: int = 0) -> list:
        """Generate and materialize the ensemble's instances.

        Convenience over :func:`repro.scenarios.generate_ensembles`;
        prefer :meth:`generate_ensembles` to keep the columnar form.
        """
        from repro.scenarios.generate import materialize_instances

        return materialize_instances(self.spec, n_instances=n_instances, seed=seed)

    def generate_ensembles(
        self, n_instances: "int | None" = None, seed: int = 0
    ) -> list:
        """Generate the columnar ensembles (one per concrete variant)."""
        from repro.scenarios.generate import generate_ensembles

        return generate_ensembles(self.spec, n_instances=n_instances, seed=seed)

    def describe(self) -> dict[str, Any]:
        """Flat summary record for CLI listings and manifests."""
        spec = self.spec
        return {
            "name": self.name,
            "description": spec.description,
            "n_instances": spec.n_instances,
            "n_tasks": spec.n_tasks,
            "p": spec.p,
            "K": spec.K,
            "rng_mode": spec.rng_mode,
            "homogeneous": self.homogeneous,
            "paired": self.paired,
            "variants": len(spec.variants()),
            "tags": list(self.tags),
        }


#: The process-wide registry (name -> Scenario).  Mutate only through
#: :func:`register_scenario`.
SCENARIOS: dict[str, Scenario] = {}


def register_scenario(
    spec: ScenarioSpec,
    *,
    tags: "tuple[str, ...] | list[str]" = (),
    replace: bool = False,
) -> Scenario:
    """Register *spec* under its name; returns the :class:`Scenario`.

    Duplicate names are rejected (``ValueError``) unless
    ``replace=True``, exactly like :func:`repro.experiments.methods.
    register_method`.
    """
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(f"register_scenario needs a ScenarioSpec, got {type(spec).__name__}")
    if spec.name in SCENARIOS and not replace:
        raise ValueError(
            f"scenario {spec.name!r} is already registered (pass replace=True to override)"
        )
    scenario = Scenario(spec=spec, tags=tuple(tags))
    SCENARIOS[spec.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name.

    Raises
    ------
    UnknownScenarioError
        With the sorted list of known names.
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
