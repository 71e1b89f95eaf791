"""Generated tests: the engine's event products are scipy's, bit for bit.

The fused engine keeps a layer input's spike events as plain CSR arrays
(``repro.core.engine._Events``) and multiplies them through the kernels
scipy itself runs for ``csr_matrix @ w`` and ``csr_matrix.T @ dv``.
Over both precisions, arbitrary nonzero values, empty rows, inputs with
no events at all and ``T = 0``, on whatever buffers the thread's arena
lends, both products must equal scipy's results byte for byte, so a
scipy upgrade that changes those kernels fails here rather than moving
bits silently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.engine import _spike_csr


@st.composite
def event_cases(draw):
    """A flat ``(batch*T, n)`` event matrix and two dense operands."""
    dtype = np.dtype(draw(st.sampled_from(["float32", "float64"])))
    batch = draw(st.integers(1, 5))
    steps = draw(st.integers(0, 12))
    n_in = draw(st.integers(1, 30))
    n_out = draw(st.integers(1, 12))
    density = draw(st.floats(0.0, 0.6))
    empty_rows = draw(st.floats(0.0, 0.5))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = batch * steps
    mask = rng.random((rows, n_in)) < density
    mask[rng.random(rows) < empty_rows] = False
    flat = np.where(mask, rng.normal(0, 2, (rows, n_in)), 0).astype(dtype)
    w = rng.normal(0, 1, (n_in, n_out)).astype(dtype)
    dv = rng.normal(0, 1, (rows, n_out)).astype(dtype)
    return flat, w, dv


def _bits(array):
    return array.shape, array.dtype.str, array.tobytes()


@settings(max_examples=150, deadline=None)
@given(event_cases())
def test_event_products_equal_scipy_bitwise(case):
    flat, w, dv = case
    events = _spike_csr(flat)
    reference = sparse.csr_matrix(flat)
    assert _bits(events.matmul(w)) == _bits(reference @ w)
    assert _bits(events.t_matmul(dv)) == _bits(reference.T @ dv)
