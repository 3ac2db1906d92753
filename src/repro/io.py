"""JSON (de)serialization for chains, platforms, mappings, and specs.

Instances and solutions need to travel — between experiment stages,
into EXPERIMENTS.md bookkeeping, across tools.  This module defines a
stable, versioned JSON round-trip for every user-facing model object,
including :class:`~repro.scenarios.spec.ScenarioSpec` (so workload
definitions ship as files through the same codec as the instances they
generate), :class:`~repro.core.ensemble.Ensemble` (whole columnar
instance ensembles as one payload), and :class:`~repro.solve.Problem`
(so bounded solver instances ship to worker processes and derive
stable cache keys; infinite bounds are encoded as the string
``"inf"``).

Format: each object carries a ``"type"`` tag and a flat payload; a
top-level ``"repro_format"`` version guards future migrations.

Examples
--------
>>> from repro import TaskChain
>>> from repro.io import dumps, loads
>>> chain = TaskChain([1.0, 2.0], [1.0, 0.0])
>>> loads(dumps(chain)) == chain
True
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.chain import TaskChain
from repro.core.ensemble import Ensemble
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util.hashing import canonical_json, content_hash

__all__ = [
    "FORMAT_VERSION",
    "to_dict",
    "from_dict",
    "dumps",
    "loads",
    "canonical_json",
    "content_hash",
]

FORMAT_VERSION = 1


def to_dict(obj: "TaskChain | Platform | Mapping | Any") -> dict[str, Any]:
    """Encode a model object into a JSON-ready dict."""
    if isinstance(obj, TaskChain):
        payload: dict[str, Any] = {
            "type": "TaskChain",
            "work": obj.work.tolist(),
            "output": obj.output.tolist(),
        }
    elif isinstance(obj, Platform):
        payload = {
            "type": "Platform",
            "speeds": obj.speeds.tolist(),
            "failure_rates": obj.failure_rates.tolist(),
            "bandwidth": obj.bandwidth,
            "link_failure_rate": obj.link_failure_rate,
            "max_replication": obj.max_replication,
        }
    elif isinstance(obj, Ensemble):
        payload = obj.to_dict()
    elif isinstance(obj, Mapping):
        payload = {
            "type": "Mapping",
            "chain": to_dict(obj.chain),
            "platform": to_dict(obj.platform),
            "intervals": [[iv.start, iv.stop] for iv in obj.intervals],
            "replicas": [list(r) for r in obj.replicas],
        }
    else:
        # Deferred imports: repro.scenarios and repro.solve are higher
        # layers (their codecs call back into this module).
        from repro.scenarios.spec import ScenarioSpec
        from repro.solve.problem import Problem

        if isinstance(obj, (ScenarioSpec, Problem)):
            payload = obj.to_dict()
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    payload["repro_format"] = FORMAT_VERSION
    return payload


def from_dict(payload: dict[str, Any]) -> "TaskChain | Platform | Mapping | Any":
    """Decode an object produced by :func:`to_dict`."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise ValueError("payload is not a repro object (missing 'type')")
    version = payload.get("repro_format", FORMAT_VERSION)
    if version > FORMAT_VERSION:
        raise ValueError(
            f"payload format {version} is newer than supported ({FORMAT_VERSION})"
        )
    kind = payload["type"]
    if kind == "TaskChain":
        return TaskChain(work=payload["work"], output=payload["output"])
    if kind == "Platform":
        return Platform(
            speeds=payload["speeds"],
            failure_rates=payload["failure_rates"],
            bandwidth=payload["bandwidth"],
            link_failure_rate=payload["link_failure_rate"],
            max_replication=payload["max_replication"],
        )
    if kind == "Mapping":
        chain, platform = _instance(payload)
        assignment = [
            (Interval(int(a), int(b)), tuple(procs))
            for (a, b), procs in zip(payload["intervals"], payload["replicas"])
        ]
        return Mapping(chain, platform, assignment)
    if kind == "Ensemble":
        return Ensemble(
            work=payload["work"],
            output=payload["output"],
            speeds=payload["speeds"],
            failure_rates=payload["failure_rates"],
            bandwidth=payload["bandwidth"],
            link_failure_rate=payload["link_failure_rate"],
            max_replication=payload["max_replication"],
            hom_counterpart_speed=payload.get("hom_counterpart_speed"),
        )
    if kind == "ScenarioSpec":
        from repro.scenarios.spec import spec_from_payload

        return spec_from_payload(payload)
    if kind == "Problem":
        from repro.solve.problem import Problem

        chain, platform = _instance(payload)
        return Problem(
            chain=chain,
            platform=platform,
            max_period=float(payload["max_period"]),
            max_latency=float(payload["max_latency"]),
            objective=payload.get("objective", "reliability"),
            # Pre-1.2 payloads carry no floor (and could not express one).
            min_reliability=float(payload.get("min_reliability", 0.0)),
        )
    raise ValueError(f"unknown object type {kind!r}")


def _instance(payload: dict[str, Any]) -> "tuple[TaskChain, Platform]":
    """The nested ``chain``/``platform`` objects of a Mapping or Problem."""
    chain = from_dict(payload["chain"])
    platform = from_dict(payload["platform"])
    if not (isinstance(chain, TaskChain) and isinstance(platform, Platform)):
        raise ValueError(
            f"{payload['type']} needs a TaskChain and a Platform, got "
            f"{type(chain).__name__} and {type(platform).__name__}"
        )
    return chain, platform


def dumps(obj: "TaskChain | Platform | Mapping | Any", **json_kwargs: Any) -> str:
    """Serialize to a JSON string."""
    return json.dumps(to_dict(obj), **json_kwargs)


def loads(text: str) -> "TaskChain | Platform | Mapping | Any":
    """Deserialize from a JSON string."""
    return from_dict(json.loads(text))
