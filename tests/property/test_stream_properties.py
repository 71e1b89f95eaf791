"""Generated differential tests for the streaming contract.

Every stream runs the fused engine's per-layer kernels on a carried
state, and a one-shot ``run`` is the same kernels started from a zero
state.  Over random architectures, neuron kinds, precisions, batch
shapes, spike densities and chunk cut points, three things must hold
bitwise:

1. streaming a sequence in chunks gives the one-shot ``run`` output;
2. in a padded batch with per-row ``lengths``, row ``i`` gets the output
   of a solo ``run(x[i:i+1, :lengths[i]])``;
3. row ``i``'s carried state equals the state of streaming that row
   alone, so the serving scatter hands every session its own history.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpikingNetwork


@st.composite
def stream_cases(draw):
    """A network, a spike batch and the stream's precision."""
    depth = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(3, 30), min_size=depth + 1,
                                max_size=depth + 1)))
    kind = draw(st.sampled_from(["adaptive", "hard_reset"]))
    precision = draw(st.sampled_from(["float64", "float32"]))
    batch = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 25))
    density = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    net = SpikingNetwork(sizes, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    rng = np.random.default_rng(seed)
    x = (rng.random((batch, steps, sizes[0])) < density).astype(np.float64)
    return net, x, precision


@given(case=stream_cases(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_chunked_stream_equals_one_shot_run(case, data):
    net, x, precision = case
    steps = x.shape[1]
    cuts = data.draw(st.lists(st.integers(1, steps), unique=True,
                              max_size=6).map(sorted))
    bounds = [0] + [c for c in cuts if c < steps] + [steps]
    full, _ = net.run(x, precision=precision)
    state = None
    outs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        out, state = net.run_stream(x[:, a:b], state, precision=precision)
        outs.append(out)
    got = np.concatenate(outs, axis=1)
    assert got.dtype == full.dtype
    assert np.array_equal(full, got)
    assert state.steps.tolist() == [steps] * x.shape[0]


def padded_lengths(data, x):
    batch, steps, _ = x.shape
    return np.array(data.draw(st.lists(st.integers(1, steps),
                                       min_size=batch, max_size=batch)))


@given(case=stream_cases(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_padded_row_equals_solo_run(case, data):
    net, x, precision = case
    lengths = padded_lengths(data, x)
    out, _ = net.run_stream(x, lengths=lengths, precision=precision)
    for i, length in enumerate(lengths):
        solo, _ = net.run(x[i:i + 1, :length], precision=precision)
        assert np.array_equal(solo[0], out[i, :length]), i


@given(case=stream_cases(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_padded_row_state_equals_solo_stream_state(case, data):
    net, x, precision = case
    lengths = padded_lengths(data, x)
    _, batched = net.run_stream(x, lengths=lengths, precision=precision)
    assert batched.steps.tolist() == lengths.tolist()
    for i, length in enumerate(lengths):
        _, solo = net.run_stream(x[i:i + 1, :length], precision=precision)
        for mine, theirs in zip(batched.layers, solo.layers):
            assert mine.keys() == theirs.keys()
            for key, arr in mine.items():
                assert arr.dtype == theirs[key].dtype
                assert np.array_equal(arr[i], theirs[key][0]), (i, key)
