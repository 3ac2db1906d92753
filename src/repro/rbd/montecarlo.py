"""Monte Carlo estimation of RBD reliability.

Samples block states independently with their reliabilities and counts
operational outcomes.  Useful as an end-to-end sanity check on diagrams
too large for enumeration, and as the statistical baseline the
discrete-event simulator is compared against.

Estimates come with a Wilson score interval; at the paper's 1e-8
failure rates a direct MC cannot resolve anything (that is precisely
why the paper computes reliabilities analytically) — tests inflate the
rates instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.rbd.diagram import RBD
from repro.util import logrel
from repro.util.rng import ensure_rng

__all__ = ["MonteCarloEstimate", "estimate_log_reliability", "wilson_interval"]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The boundary cases pin their exact endpoint: all-successes returns
    an upper bound of exactly 1.0 (the float arithmetic otherwise lands
    at 1 - 1ulp, which would spuriously exclude a true proportion of
    1.0 — e.g. an analytical reliability within 1e-18 of certainty),
    and symmetrically all-failures returns a lower bound of exactly 0.
    """
    if trials <= 0:
        raise ValueError("trials must be > 0")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Result of a Monte Carlo reliability estimation."""

    trials: int
    successes: int
    z: float = 1.96

    @property
    def reliability(self) -> float:
        return self.successes / self.trials

    @property
    def log_reliability(self) -> float:
        if self.successes == 0:
            return -math.inf
        return math.log(self.successes / self.trials)

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials, self.z)

    def consistent_with(self, log_reliability: float) -> bool:
        """Does *log_reliability* fall inside the confidence interval?"""
        lo, hi = self.confidence_interval
        r = logrel.reliability(log_reliability)
        return lo <= r <= hi


def estimate_log_reliability(  # repro-lint: disable=API001 Monte Carlo reliability oracle
    rbd: RBD,
    trials: int = 10_000,
    rng: "int | None | np.random.Generator" = None,
) -> MonteCarloEstimate:
    """Estimate the RBD's reliability by sampling block states.

    The sampler evaluates operability through the minimal path sets
    (vectorized over trials); falls back to per-trial graph reachability
    when the path structure is too large.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = ensure_rng(rng)
    nodes = list(rbd.blocks)
    if not nodes:
        # No blocks: operational iff an S->D edge exists.
        ok = rbd.operational(set())
        return MonteCarloEstimate(trials=trials, successes=trials if ok else 0)
    rel = np.array([rbd.block(n).reliability for n in nodes])
    up = gen.random((trials, len(nodes))) < rel  # (trials, B) block states

    paths = None
    try:
        from repro.rbd.evaluate import minimal_path_sets

        psets = minimal_path_sets(rbd)
        if 0 < len(psets) <= 512:
            index = {n: i for i, n in enumerate(nodes)}
            paths = [np.array([index[b] for b in ps], dtype=int) for ps in psets]
    except Exception:  # pragma: no cover - defensive; falls back below
        paths = None

    if paths is not None:
        operational = np.zeros(trials, dtype=bool)
        for cols in paths:
            operational |= up[:, cols].all(axis=1)
        successes = int(operational.sum())
    else:  # pragma: no cover - exercised only on huge diagrams
        successes = 0
        for t in range(trials):
            state = {n for n, u in zip(nodes, up[t]) if u}
            successes += rbd.operational(state)
    return MonteCarloEstimate(trials=trials, successes=successes)
