"""The result contract: one record per solve, one array set per batch.

:class:`SolveResult` is what every solver and heuristic returns for one
problem; :class:`UnitResults` is what every batched kernel, the sweep
harness's one-unit solve (in the parent or a pool worker) and cache
hits return for a group of work units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.evaluation import MappingEvaluation
from repro.core.mapping import Mapping

__all__ = ["SolveResult", "UnitResults"]

#: The selection rules of :func:`~repro.algorithms.heuristic_best` and
#: the allocation modes of :func:`~repro.algorithms.heuristic_candidates`
#: (the batched kernels in :mod:`repro.algorithms.batch` take both).
#: They live here, in a module the kernels load anyway, so a kernel run
#: does not load the scalar heuristics.
SELECTIONS = ("feasible-best", "best-then-check")
ALLOCATIONS = ("auto", "het")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a mapping search.

    Attributes
    ----------
    feasible:
        Whether a mapping satisfying all requested bounds was found.
        ``False`` either because none exists (exact methods) or because
        the method failed to find one (heuristics).
    mapping:
        The best mapping found, or ``None`` when infeasible.
    evaluation:
        The Section 4 objectives of :attr:`mapping`, or ``None``.
    method:
        Human-readable name of the producing algorithm.
    details:
        Method-specific diagnostics (e.g. number of candidate divisions
        tried, ILP node counts).  Never required for correctness.
    """

    feasible: bool
    mapping: Mapping | None = None
    evaluation: MappingEvaluation | None = None
    method: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.feasible and (self.mapping is None or self.evaluation is None):
            raise ValueError("a feasible result must carry a mapping and evaluation")
        if not self.feasible and self.mapping is not None:
            raise ValueError("an infeasible result must not carry a mapping")

    @property
    def log_reliability(self) -> float:
        """Log-reliability of the best mapping (``-inf`` when infeasible)."""
        if self.evaluation is None:
            return float("-inf")
        return self.evaluation.log_reliability

    @property
    def failure_probability(self) -> float:
        """Failure probability of the best mapping (1.0 when infeasible)."""
        if self.evaluation is None:
            return 1.0
        return self.evaluation.failure_probability

    def objective_value(self, objective: str = "reliability") -> float:
        """The solved mapping's value under one of the facade objectives.

        ``"reliability"`` returns the plain reliability (0.0 when
        infeasible); the minimized criteria return the achieved
        worst-case period / worst-case latency / energy (``inf`` when
        infeasible).  Energy reads ``details["energy"]`` when the
        producing method recorded it (same power-model parameters as
        the solve) and falls back to
        :func:`repro.extensions.energy.mapping_energy` defaults.
        """
        if objective == "reliability":
            if self.evaluation is None:
                return 0.0
            return self.evaluation.reliability
        if not self.feasible or self.evaluation is None:
            return float("inf")
        if objective == "period":
            return self.evaluation.worst_case_period
        if objective == "latency":
            return self.evaluation.worst_case_latency
        if objective == "energy":
            if "energy" in self.details:
                return float(self.details["energy"])
            from repro.extensions.energy import mapping_energy

            assert self.mapping is not None
            return mapping_energy(self.mapping)
        raise ValueError(f"unknown objective {objective!r}")

    @staticmethod
    def infeasible(method: str, **details: Any) -> "SolveResult":
        """Shorthand for a no-solution outcome."""
        return SolveResult(feasible=False, method=method, details=dict(details))


@dataclass
class UnitResults:
    """Per-(row, sweep point) results: the one solve-result contract.

    Kernels, the harness's one-unit solve (parent and pool workers
    alike) and cache hits all return this.  ``solved``, ``failure``,
    ``values``, ``period`` and ``latency`` have shape
    ``(rows, points)``; ``values`` holds each
    point's achieved objective value
    (:meth:`~repro.algorithms.result.SolveResult.objective_value`), and
    ``period`` / ``latency`` the witness mapping's worst-case period
    and latency.  ``infos`` has one entry per row: the solve details a
    search method aggregates over the row's points (``probes`` totals,
    a ``converged`` flag), or ``None`` for methods that report none.
    """

    #: The per-(row, point) arrays, in record order.
    ARRAYS = ("solved", "failure", "values", "period", "latency")

    solved: np.ndarray
    failure: np.ndarray
    values: np.ndarray
    period: np.ndarray
    latency: np.ndarray
    infos: list

    @classmethod
    def empty(cls, n_rows: int, n_points: int, objective: str) -> "UnitResults":
        """All-infeasible results: failure 1.0, period and latency
        ``inf``, and value 0.0 for ``"reliability"`` or ``inf`` for the
        minimized objectives (the
        :meth:`~repro.algorithms.result.SolveResult.objective_value`
        convention for an infeasible solve)."""
        shape = (n_rows, n_points)
        return cls(
            solved=np.zeros(shape, dtype=bool),
            failure=np.ones(shape, dtype=float),
            values=np.full(shape, 0.0 if objective == "reliability" else math.inf),
            period=np.full(shape, math.inf),
            latency=np.full(shape, math.inf),
            infos=[None] * n_rows,
        )

    def set_row(self, row: int, other: "UnitResults", r: int) -> None:
        """Copy row *r* of *other* (arrays and info) into row *row*."""
        for name in self.ARRAYS:
            getattr(self, name)[row] = getattr(other, name)[r]
        self.infos[row] = other.infos[r]
