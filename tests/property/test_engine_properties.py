"""Generated differential tests: the fused engine against the step oracle.

The fused engine holds every buffer time-major and reorders the loop nest
layer-major; the step-wise path (``engine="step"``) and the reference
BPTT (``backward(engine="reference")``) are the literal unfolding of the
paper's equations.  Over random depths (1-3 layers), widths (1-40), both
neuron kinds, both precisions, and batch and sequence lengths down to 1:

* float64 output spikes are bitwise equal; float32 runs, whose spikes may
  round across the threshold differently, are compared only where they
  agree;
* membrane values, the derived synapse-filter trace ``k``, the final
  layer/neuron state and both gradient modes' weight gradients match to
  the tolerances of ``tests/unit/test_engine.py``;
* every record tensor reports the public ``(batch, T, n)`` shape.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    kind = draw(st.sampled_from(["adaptive", "hard_reset"]))
    precision = draw(st.sampled_from(["float64", "float32"]))
    mode = draw(st.sampled_from(["exact", "truncated"]))
    batch = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 25))
    density = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    net = SpikingNetwork(sizes, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    rng = np.random.default_rng(seed)
    x = (rng.random((batch, steps, sizes[0])) < density).astype(np.float64)
    return net, x, precision, mode


def final_state(net):
    """Copies of every layer's and neuron's incremental state."""
    state = []
    for layer in net.layers:
        neuron = layer.neuron
        arrays = ((layer.k, neuron.h, neuron.last_output)
                  if layer.neuron_kind == "adaptive" else (layer.k, neuron.v))
        state.append([np.array(a) for a in arrays])
    return state


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
def test_fused_engine_matches_step_oracle(case):
    net, x, precision, mode = case
    batch, steps, _ = x.shape
    out_step, rec_step = net.run(x, record=True, engine="step",
                                 precision=precision)
    state_step = final_state(net)
    out_fused, rec_fused = net.run(x, record=True, precision=precision)
    state_fused = final_state(net)

    assert_record_shapes(net, rec_step, batch, steps)
    assert_record_shapes(net, rec_fused, batch, steps)
    assert out_fused.dtype == np.dtype(precision)
    if precision == "float64":
        assert np.array_equal(out_step, out_fused)
    else:
        assume(all(np.array_equal(a.spikes, b.spikes)
                   for a, b in zip(rec_step.layers, rec_fused.layers)))
    rtol, atol = FORWARD_TOL[precision]
    for a, b in zip(rec_step.layers, rec_fused.layers):
        assert np.array_equal(a.spikes, b.spikes)
        np.testing.assert_allclose(a.v, b.v, rtol=rtol, atol=atol)
        if a.k is not None:
            np.testing.assert_allclose(a.k, b.k, rtol=rtol, atol=atol)
    for mine, theirs in zip(state_step, state_fused):
        for a, b in zip(mine, theirs):
            np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)

    labels = np.arange(batch) % net.sizes[-1]
    _, grad_out = CrossEntropyRateLoss().value_and_grad(out_fused, labels)
    ref = backward(net, rec_step, grad_out, mode=mode, engine="reference")
    fused = backward(net, rec_fused, grad_out, mode=mode)
    rtol, atol = GRAD_TOL[precision]
    for a, b in zip(ref.weight_grads, fused.weight_grads):
        assert b.dtype == np.dtype(precision)
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
    assert fused.input_grad.shape == x.shape
    np.testing.assert_allclose(ref.input_grad, fused.input_grad,
                               rtol=rtol, atol=atol)
