"""The linear-quantile helper against ``np.quantile``, bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solve.grid import linear_quantiles

samples = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.integers(-3, 3).map(float),  # exact ties
    ),
    min_size=1, max_size=30,
)
levels = st.one_of(
    st.just((0.1, 0.5, 0.9)),
    st.integers(2, 12).map(lambda n: tuple(np.linspace(0.0, 1.0, n))),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)


def same_bits(a, b) -> bool:
    """Equal values, NaN where the other is NaN, and equal zero signs."""
    return a.shape == b.shape and all(
        (math.isnan(x) and math.isnan(y))
        or (x == y and math.copysign(1, x) == math.copysign(1, y))
        for x, y in zip(a.tolist(), b.tolist())
    )


@given(samples, levels)
@settings(max_examples=500, deadline=None)
def test_matches_np_quantile(values, qs):
    """Bit for bit against ``np.quantile`` of the canonical sample, each
    ``-0.0`` read as ``+0.0``: numpy's partition may leave either zero
    at an index where the two tie."""
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.quantile(np.array(values) + 0.0, qs)
        got = linear_quantiles(values, qs)
    assert same_bits(got, want)


def test_signed_zeros_read_as_positive_zero():
    """A sample mixing ``0.0`` and ``-0.0``: the median is ``+0.0``,
    wherever the sort leaves the negative zeros."""
    got = linear_quantiles([0.0, 0.0, 0.0, 1.0, -0.0, -0.0, 0.0, 0.0], (0.5,))
    assert same_bits(got, np.array([0.0]))
    assert same_bits(linear_quantiles([-0.0, -0.0], (0.0, 0.5, 1.0)), np.zeros(3))


def test_nan_sample_has_nan_quantiles():
    got = linear_quantiles([1.0, math.nan, 2.0], (0.0, 0.5))
    assert np.isnan(got).all()
