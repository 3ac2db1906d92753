"""The objectives a :class:`repro.solve.Problem` can optimize.

A module of its own, free of numpy, so the CLI can offer the choices
to argparse without importing a solver; :mod:`repro.solve` and
:mod:`repro.solve.problem` re-export the tuple.
"""

__all__ = ["OBJECTIVES"]

#: Supported optimization objectives.  ``"reliability"`` is the paper's
#: Section 3 problem (maximize reliability under period/latency bounds).
#: The converse criteria optimize one performance bound under a
#: *reliability floor* (:attr:`repro.solve.Problem.min_reliability`):
#:
#: * ``"period"`` — minimize the worst-case period subject to the floor
#:   and the latency bound (Section 5.2's binary-search converse);
#: * ``"latency"`` — minimize the worst-case latency subject to the
#:   floor and the period bound (Section 5.3 scope, via the Pareto DP);
#: * ``"energy"`` — minimize the Section 9 dynamic-power energy subject
#:   to the floor and both bounds (:mod:`repro.extensions.energy`).
OBJECTIVES = ("reliability", "period", "latency", "energy")
