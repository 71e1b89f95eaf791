"""Property tests: the in-place surrogate derivatives (paper eq. 14).

Each surrogate evaluates its pseudo-derivative as a sequence of ufuncs run
in place over one float64 buffer.  The oracles below are the plain
expressions written out literally; for any input, dtype and shape the
in-place evaluation must reproduce them bit for bit (a NaN matches any
NaN) — with a fresh buffer, a caller's buffer, and the input itself as
the buffer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.surrogate import (
    ErfcSurrogate,
    RectangularSurrogate,
    SigmoidSurrogate,
    TriangleSurrogate,
)


def erfc_oracle(x, sigma):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-(x * x) / (2.0 * sigma ** 2)) / (np.sqrt(2.0 * np.pi) * sigma)


def sigmoid_oracle(x, beta):
    x = np.asarray(x, dtype=np.float64)
    return 1.0 / (1.0 + beta * np.abs(x)) ** 2


def triangle_oracle(x, width):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(0.0, 1.0 - np.abs(x) / width) / width


def rectangular_oracle(x, half_width):
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) <= half_width
    return inside / (2.0 * half_width)


KINDS = {
    "erfc": (ErfcSurrogate, erfc_oracle),
    "sigmoid": (SigmoidSurrogate, sigmoid_oracle),
    "triangle": (TriangleSurrogate, triangle_oracle),
    "rectangular": (RectangularSurrogate, rectangular_oracle),
}

MAX_SHAPE = (4, 16, 33)
shapes = st.integers(min_value=0, max_value=3).flatmap(
    lambda ndim: st.tuples(*(st.integers(min_value=1, max_value=size)
                             for size in MAX_SHAPE[3 - ndim:])))


@st.composite
def inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return draw(hnp.arrays(dtype=dtype, shape=shapes,
                           elements=st.floats(width=np.finfo(dtype).bits)))


params = st.floats(min_value=0.05, max_value=5.0)


def bitwise_equal(a, b):
    """Same dtype, shape and bits, except that any NaN equals any NaN: a
    NaN's sign bit depends on where a formula puts its minus sign."""
    def canonical(x):
        return np.where(np.isnan(x), np.nan, x).astype(x.dtype).tobytes()
    return a.dtype == b.dtype and a.shape == b.shape \
        and canonical(a) == canonical(b)


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(x=inputs(), param=params)
@settings(max_examples=60, deadline=None)
def test_in_place_derivative_is_bitwise_the_formula(kind, x, param):
    cls, oracle = KINDS[kind]
    surrogate = cls(param)
    # Overflow to inf is part of the input domain.
    with np.errstate(all="ignore"):
        check_in_place(surrogate, lambda v: oracle(v, param), x)


def check_in_place(surrogate, oracle, x):
    expected = oracle(x)

    fresh = surrogate.derivative(x)
    assert bitwise_equal(np.asarray(fresh), expected)

    buffer = np.empty(np.shape(x), dtype=np.float64)
    into = surrogate.derivative(x, out=buffer)
    assert into is buffer
    assert bitwise_equal(into, expected)

    if x.dtype == np.float64:
        own = x.copy()
        assert surrogate.derivative(own, out=own) is own
        assert bitwise_equal(own, expected)
    else:
        # A float32 buffer would round mid-sequence; it is refused.
        with pytest.raises(ValueError, match="float64"):
            surrogate.derivative(x, out=x)
