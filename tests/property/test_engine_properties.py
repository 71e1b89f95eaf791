"""Generated differential tests: the fused engine against the tape oracle.

The fused engine holds every buffer time-major and reorders the loop nest
layer-major; the autograd tape's unroll
(``repro.autograd.reference.unroll``) is the literal step-by-step
unfolding of the paper's equations, differentiated mechanically.  Over
random depths (1-3 layers), widths (1-40), every neuron kind, both
precisions, and batch and sequence lengths down to 1:

* float64 output spikes are bitwise equal; float32 runs, whose spikes may
  round across the threshold differently, are compared only where they
  agree;
* membrane values, the derived synapse-filter trace ``k``, the final
  state a stream of the sequence leaves and both gradient modes' weight
  and input gradients match to the tolerances of
  ``tests/unit/test_engine.py``;
* every record tensor reports the public ``(batch, T, n)`` shape.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.autograd import unroll
from repro.core import CrossEntropyRateLoss, SpikingNetwork, backward

#: (rtol, atol) per precision: test_engine's forward/backward tolerances
#: for float64, its float32-gradient tolerance for float32.
FORWARD_TOL = {"float64": (1e-9, 1e-12), "float32": (2e-3, 1e-5)}
GRAD_TOL = {"float64": (1e-8, 1e-12), "float32": (2e-3, 1e-5)}


@st.composite
def engine_cases(draw):
    """A network, a spike batch, a precision and a gradient mode."""
    depth = draw(st.integers(1, 3))
    sizes = tuple(draw(st.lists(st.integers(1, 40), min_size=depth + 1,
                                max_size=depth + 1)))
    kind = draw(st.sampled_from(["adaptive", "hard_reset",
                                 "hard_reset_euler"]))
    precision = draw(st.sampled_from(["float64", "float32"]))
    mode = draw(st.sampled_from(["exact", "truncated"]))
    batch = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 25))
    density = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    net = SpikingNetwork(sizes, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= 25.0 if kind == "hard_reset_euler" else 5.0
    rng = np.random.default_rng(seed)
    x = (rng.random((batch, steps, sizes[0])) < density).astype(np.float64)
    return net, x, precision, mode


def stream_state(net, x, precision):
    """The state a stream of ``x`` as one chunk leaves, per layer: an
    adaptive layer carries ``{g, h, o}`` (the drive ``g = k W^T`` in
    place of the tape's ``k``), a hard-reset layer ``{v}``."""
    _, state = net.run_stream(x, precision=precision)
    return state.layers


def assert_record_shapes(net, record, batch, steps):
    assert record.outputs.shape == (batch, steps, net.sizes[-1])
    for layer, layer_record in zip(net.layers, record.layers):
        assert layer_record.v.shape == (batch, steps, layer.n_out)
        assert layer_record.spikes.shape == (batch, steps, layer.n_out)
        if layer.neuron_kind == "adaptive":
            assert layer_record.k.shape == (batch, steps, layer.n_in)
        else:
            assert layer_record.k is None


@given(case=engine_cases())
@settings(max_examples=80, deadline=None)
def test_fused_engine_matches_tape_oracle(case):
    net, x, precision, mode = case
    batch, steps, _ = x.shape
    tape = unroll(net, x, precision=precision, mode=mode)
    out_fused, rec_fused = net.run(x, record=True, precision=precision)
    state_fused = stream_state(net, x, precision)

    assert_record_shapes(net, rec_fused, batch, steps)
    assert out_fused.dtype == np.dtype(precision)
    layers = range(len(net.layers))
    if precision == "float64":
        assert np.array_equal(tape.spikes(), out_fused)
    else:
        assume(all(np.array_equal(tape.spikes(i), rec_fused.layers[i].spikes)
                   for i in layers))
    rtol, atol = FORWARD_TOL[precision]
    for i, b in zip(layers, rec_fused.layers):
        assert np.array_equal(tape.spikes(i), b.spikes)
        np.testing.assert_allclose(tape.v(i), b.v, rtol=rtol, atol=atol)
        if b.k is not None:
            np.testing.assert_allclose(tape.k(i), b.k, rtol=rtol, atol=atol)
    for layer, mine, theirs in zip(net.layers, tape.state, state_fused):
        if layer.neuron_kind == "adaptive":
            assert theirs.keys() == {"g", "h", "o"}
            np.testing.assert_allclose(mine["k"] @ layer.weight.T,
                                       theirs["g"], rtol=rtol, atol=atol)
            for key in ("h", "o"):
                np.testing.assert_allclose(mine[key], theirs[key],
                                           rtol=rtol, atol=atol)
        else:
            assert mine.keys() == theirs.keys() == {"v"}
            np.testing.assert_allclose(mine["v"], theirs["v"],
                                       rtol=rtol, atol=atol)

    labels = np.arange(batch) % net.sizes[-1]
    _, grad_out = CrossEntropyRateLoss().value_and_grad(out_fused, labels)
    ref = tape.backward(grad_out)
    fused = backward(net, rec_fused, grad_out, mode=mode)
    rtol, atol = GRAD_TOL[precision]
    for a, b in zip(ref.weight_grads, fused.weight_grads):
        assert a.dtype == b.dtype == np.dtype(precision)
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
    assert fused.input_grad.shape == x.shape
    np.testing.assert_allclose(ref.input_grad, fused.input_grad,
                               rtol=rtol, atol=atol)
