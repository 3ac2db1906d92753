"""Unit tests for log-domain reliability arithmetic."""

import math

import numpy as np
import pytest

from repro.util import logrel


class TestFromRate:
    def test_basic(self):
        assert logrel.from_rate(0.1, 2.0) == pytest.approx(-0.2)

    def test_zero_rate_is_perfect(self):
        assert logrel.from_rate(0.0, 100.0) == 0.0

    def test_zero_duration_is_perfect(self):
        assert logrel.from_rate(5.0, 0.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="failure rate"):
            logrel.from_rate(-1.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            logrel.from_rate(1.0, -1.0)


class TestConversions:
    def test_reliability_roundtrip(self):
        ell = -0.3
        assert logrel.from_reliability(logrel.reliability(ell)) == pytest.approx(ell)

    def test_failure_exact_for_tiny(self):
        # 1 - exp(-1e-18) == 1e-18 to first order; plain 1 - exp would give 0.
        assert logrel.failure(-1e-18) == pytest.approx(1e-18, rel=1e-12)

    def test_from_failure_tiny(self):
        assert logrel.from_failure(1e-15) == pytest.approx(-1e-15, rel=1e-9)

    def test_log_failure_branches(self):
        # Both branches of the log1mexp trick.
        assert logrel.log_failure(-1e-9) == pytest.approx(math.log(1e-9), rel=1e-6)
        assert logrel.log_failure(-50.0) == pytest.approx(math.log1p(-math.exp(-50.0)))

    def test_log_failure_perfect_block(self):
        assert logrel.log_failure(0.0) == -math.inf

    def test_from_reliability_bounds(self):
        with pytest.raises(ValueError):
            logrel.from_reliability(1.5)
        with pytest.raises(ValueError):
            logrel.from_reliability(-0.1)
        assert logrel.from_reliability(0.0) == -math.inf
        assert logrel.from_reliability(1.0) == 0.0

    def test_from_failure_bounds(self):
        with pytest.raises(ValueError):
            logrel.from_failure(2.0)
        assert logrel.from_failure(1.0) == -math.inf
        assert logrel.from_failure(0.0) == 0.0


class TestCheck:
    def test_positive_rejected(self):
        with pytest.raises(ValueError, match="<= 0"):
            logrel.check_logrel(0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            logrel.check_logrel(float("nan"))

    def test_neg_inf_allowed(self):
        assert logrel.check_logrel(-math.inf) == -math.inf


class TestSerial:
    def test_matches_product(self):
        rs = [0.9, 0.8, 0.99]
        ell = logrel.serial(math.log(r) for r in rs)
        assert math.exp(ell) == pytest.approx(0.9 * 0.8 * 0.99)

    def test_empty_is_perfect(self):
        assert logrel.serial([]) == 0.0

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            logrel.serial([0.1])


class TestParallel:
    def test_matches_formula_two_blocks(self):
        r1, r2 = 0.9, 0.7
        expected = 1 - (1 - r1) * (1 - r2)
        ell = logrel.parallel([math.log(r1), math.log(r2)])
        assert math.exp(ell) == pytest.approx(expected)

    def test_empty_has_no_path(self):
        assert logrel.parallel([]) == -math.inf

    def test_perfect_branch_dominates(self):
        assert logrel.parallel([0.0, -5.0]) == 0.0

    def test_all_failed(self):
        assert logrel.parallel([-math.inf, -math.inf]) == -math.inf

    def test_tiny_failures_no_cancellation(self):
        # Two branches with failure 1e-9 each: stage failure 1e-18.
        ell = logrel.from_failure(1e-9)
        stage = logrel.parallel([ell, ell])
        assert logrel.failure(stage) == pytest.approx(1e-18, rel=1e-6)

    def test_commutative(self):
        ells = [-0.5, -1e-9, -3.0]
        assert logrel.parallel(ells) == pytest.approx(
            logrel.parallel(list(reversed(ells))), rel=1e-14
        )


class TestParallelK:
    def test_matches_parallel(self):
        ell = -0.2
        for k in (1, 2, 3, 5):
            assert logrel.parallel_k(ell, k) == pytest.approx(
                logrel.parallel([ell] * k), rel=1e-12
            )

    def test_k1_identity(self):
        assert logrel.parallel_k(-0.7, 1) == -0.7

    def test_monotone_in_k(self):
        ell = -0.4
        vals = [logrel.parallel_k(ell, k) for k in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            logrel.parallel_k(-0.1, 0)

    def test_perfect_replica(self):
        assert logrel.parallel_k(0.0, 3) == 0.0

    def test_failed_replica(self):
        assert logrel.parallel_k(-math.inf, 3) == -math.inf

    def test_paper_regime_precision(self):
        # lambda = 1e-8, W = 50: single-replica failure 5e-7; triple
        # replication should give failure 1.25e-19 exactly-ish.
        ell = logrel.from_rate(1e-8, 50.0)
        stage = logrel.parallel_k(ell, 3)
        assert logrel.failure(stage) == pytest.approx(1.25e-19, rel=1e-6)


class TestVectorized:
    def test_parallel_k_many_matches_scalar(self):
        ells = np.array([-0.5, -1e-10, -2.0, 0.0])
        ks = np.array([1, 2, 3, 4])
        out = logrel.parallel_k_many(ells, ks)
        for e, k, o in zip(ells, ks, out):
            assert o == pytest.approx(logrel.parallel_k(float(e), int(k)), rel=1e-12)

    def test_parallel_k_many_broadcast(self):
        out = logrel.parallel_k_many(-0.3, np.arange(1, 5))
        assert out.shape == (4,)
        assert np.all(np.diff(out) > 0)

    def test_parallel_k_many_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            logrel.parallel_k_many(np.array([0.1]), 2)
        with pytest.raises(ValueError):
            logrel.parallel_k_many(np.array([-0.1]), 0)

    def test_log1mexp_extremes(self):
        out = logrel.log1mexp(np.array([-1e-300, -700.0]))
        assert out[0] < -600  # log(1e-300) ~ -690
        assert out[1] == pytest.approx(0.0, abs=1e-250)
