"""Property tests for the training algorithm: for *random* networks,
inputs and losses, the hand-derived BPTT must agree with the independent
autograd reference to machine precision."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    add,
    cross_entropy_with_logits,
    scale,
    unroll,
    van_rossum_loss,
)
from repro.common.rng import RandomState
from repro.core import CrossEntropyRateLoss, SpikingNetwork, VanRossumLoss, backward
from repro.core.neurons import NeuronParameters

network_shapes = st.sampled_from([
    (4, 3), (5, 4, 3), (6, 5, 4, 3), (3, 6, 2),
])


def _setup(shape, seed, steps, rate, kind="adaptive", theta=1.0):
    params = NeuronParameters(theta=theta)
    net = SpikingNetwork(shape, params=params, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= 8.0
    rng = RandomState(seed + 1000)
    x = (rng.random((2, steps, shape[0])) < rate).astype(np.float64)
    return net, x


def _count_logits(outputs, count_scale):
    counts = None
    for out in outputs:
        counts = out if counts is None else add(counts, out)
    return scale(counts, count_scale)


@given(
    shape=network_shapes,
    seed=st.integers(min_value=0, max_value=50),
    steps=st.integers(min_value=2, max_value=16),
    rate=st.floats(min_value=0.1, max_value=0.7),
    theta=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_adaptive_bptt_matches_autograd(shape, seed, steps, rate, theta):
    net, x = _setup(shape, seed, steps, rate, theta=theta)
    labels = RandomState(seed).integers(0, shape[-1], 2)
    out, record = net.run(x, record=True)
    loss = CrossEntropyRateLoss()
    value, grad_out = loss.value_and_grad(out, labels)
    manual = backward(net, record, grad_out, mode="exact")

    tape = unroll(net, x)
    np.testing.assert_array_equal(out, tape.spikes())
    ad_loss = cross_entropy_with_logits(
        _count_logits(tape.outputs[-1], 10.0 / steps), labels)
    ad_loss.backward()
    for m, t in zip(manual.weight_grads, tape.weights):
        np.testing.assert_allclose(m, t.grad.T, atol=1e-10)


@given(
    shape=network_shapes,
    seed=st.integers(min_value=0, max_value=50),
    steps=st.integers(min_value=2, max_value=14),
)
@settings(max_examples=15, deadline=None)
def test_hard_reset_bptt_matches_autograd(shape, seed, steps):
    net, x = _setup(shape, seed, steps, 0.4, kind="hard_reset")
    labels = RandomState(seed).integers(0, shape[-1], 2)
    out, record = net.run(x, record=True)
    loss = CrossEntropyRateLoss()
    _, grad_out = loss.value_and_grad(out, labels)
    manual = backward(net, record, grad_out)

    tape = unroll(net, x)
    ad_loss = cross_entropy_with_logits(
        _count_logits(tape.outputs[-1], 10.0 / steps), labels)
    ad_loss.backward()
    for m, t in zip(manual.weight_grads, tape.weights):
        np.testing.assert_allclose(m, t.grad.T, atol=1e-10)


@given(
    seed=st.integers(min_value=0, max_value=50),
    steps=st.integers(min_value=3, max_value=14),
)
@settings(max_examples=15, deadline=None)
def test_van_rossum_bptt_matches_autograd(seed, steps):
    net, x = _setup((5, 4, 3), seed, steps, 0.4)
    rng = RandomState(seed + 7)
    targets = (rng.random((2, steps, 3)) < 0.3).astype(np.float64)
    out, record = net.run(x, record=True)
    loss = VanRossumLoss()
    value, grad_out = loss.value_and_grad(out, targets)
    manual = backward(net, record, grad_out, mode="exact")

    tape = unroll(net, x)
    ad_loss = van_rossum_loss(tape.outputs[-1], targets)
    np.testing.assert_allclose(float(ad_loss.data), value, rtol=1e-10)
    ad_loss.backward()
    for m, t in zip(manual.weight_grads, tape.weights):
        np.testing.assert_allclose(m, t.grad.T, atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_gradients_vanish_for_silent_loss(seed):
    """Zero loss gradient must produce exactly zero weight gradients."""
    net, x = _setup((4, 3, 2), seed, 8, 0.4)
    out, record = net.run(x, record=True)
    result = backward(net, record, np.zeros_like(out))
    for g in result.weight_grads:
        np.testing.assert_array_equal(g, 0.0)
    np.testing.assert_array_equal(result.input_grad, 0.0)


@given(
    seed=st.integers(min_value=0, max_value=50),
    scale_factor=st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=20, deadline=None)
def test_gradient_linear_in_output_grad(seed, scale_factor):
    """backward is linear in grad_outputs (it is a linear adjoint map)."""
    net, x = _setup((4, 3, 2), seed, 8, 0.4)
    out, record = net.run(x, record=True)
    rng = RandomState(seed)
    grad_out = rng.normal(size=out.shape)
    base = backward(net, record, grad_out)
    scaled = backward(net, record, grad_out * scale_factor)
    for g1, g2 in zip(base.weight_grads, scaled.weight_grads):
        np.testing.assert_allclose(g2, scale_factor * g1, rtol=1e-9,
                                   atol=1e-12)
