"""Unit tests for the hand-derived BPTT against the autograd reference.

The chain of trust: tests/unit/test_autograd.py validates the tape
against finite differences on smooth graphs; here the tape's unroll of
the network (with the same Heaviside-forward / surrogate-backward
semantics), with the loss itself built on the tape, validates the
adjoint recursions of repro.core.backprop.
"""

import numpy as np
import pytest

from repro.autograd import (
    add,
    cross_entropy_with_logits,
    scale,
    unroll,
    van_rossum_loss,
)
from repro.common.errors import ShapeError
from repro.common.rng import RandomState
from repro.core import (
    CrossEntropyRateLoss,
    SpikingNetwork,
    VanRossumLoss,
    backward,
)


def _active_network(sizes, kind="adaptive", seed=2, boost=8.0):
    net = SpikingNetwork(sizes, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= boost     # ensure spiking activity
    return net


def _spikes(shape, rate, seed):
    rng = RandomState(seed)
    return (rng.random(shape) < rate).astype(np.float64)


def _count_logits(outputs, count_scale):
    counts = None
    for out in outputs:
        counts = out if counts is None else add(counts, out)
    return scale(counts, count_scale)


class TestAdaptiveGradients:
    def test_forward_matches_reference(self):
        net = _active_network((8, 6, 5))
        x = _spikes((3, 14, 8), 0.35, 1)
        out, _ = net.run(x, record=True)
        np.testing.assert_array_equal(out, unroll(net, x).spikes())

    def test_crossentropy_gradients_match(self):
        net = _active_network((8, 6, 5))
        x = _spikes((4, 12, 8), 0.35, 2)
        labels = np.array([0, 1, 2, 4])
        out, record = net.run(x, record=True)
        assert out.sum() > 0, "test needs spiking activity"
        loss = CrossEntropyRateLoss()
        value, grad_out = loss.value_and_grad(out, labels)
        result = backward(net, record, grad_out, mode="exact")

        tape = unroll(net, x)
        logits = _count_logits(tape.outputs[-1], 10.0 / 12)
        ad_loss = cross_entropy_with_logits(logits, labels)
        assert float(ad_loss.data) == pytest.approx(value, abs=1e-12)
        ad_loss.backward()
        for manual, tensor in zip(result.weight_grads, tape.weights):
            np.testing.assert_allclose(manual, tensor.grad.T, atol=1e-12)

    def test_vanrossum_gradients_match(self):
        net = _active_network((6, 5, 3))
        x = _spikes((2, 16, 6), 0.4, 3)
        targets = _spikes((2, 16, 3), 0.2, 4)
        out, record = net.run(x, record=True)
        loss = VanRossumLoss()
        value, grad_out = loss.value_and_grad(out, targets)
        result = backward(net, record, grad_out, mode="exact")

        tape = unroll(net, x)
        ad_loss = van_rossum_loss(tape.outputs[-1], targets)
        assert float(ad_loss.data) == pytest.approx(value, rel=1e-12)
        ad_loss.backward()
        for manual, tensor in zip(result.weight_grads, tape.weights):
            np.testing.assert_allclose(manual, tensor.grad.T, atol=1e-10)

    def test_input_gradient_matches(self):
        net = _active_network((5, 4, 3))
        x = _spikes((2, 10, 5), 0.4, 5)
        labels = np.array([0, 2])
        out, record = net.run(x, record=True)
        loss = CrossEntropyRateLoss()
        _, grad_out = loss.value_and_grad(out, labels)
        result = backward(net, record, grad_out)

        # The tape's input leaves (one per step) carry dE/dx.
        tape = unroll(net, x)
        logits = _count_logits(tape.outputs[-1], 10.0 / 10)
        cross_entropy_with_logits(logits, labels).backward()
        ad_input_grad = np.stack([leaf.grad for leaf in tape.inputs], axis=1)
        assert result.input_grad.shape == x.shape
        np.testing.assert_allclose(result.input_grad, ad_input_grad,
                                   atol=1e-12)


class TestHardResetGradients:
    def test_gradients_match(self):
        net = _active_network((7, 5, 4), kind="hard_reset")
        x = _spikes((3, 13, 7), 0.4, 6)
        labels = np.array([1, 0, 3])
        out, record = net.run(x, record=True)
        loss = CrossEntropyRateLoss()
        value, grad_out = loss.value_and_grad(out, labels)
        result = backward(net, record, grad_out)

        tape = unroll(net, x)
        np.testing.assert_array_equal(out, tape.spikes())
        logits = _count_logits(tape.outputs[-1], 10.0 / 13)
        ad_loss = cross_entropy_with_logits(logits, labels)
        assert float(ad_loss.data) == pytest.approx(value, abs=1e-12)
        ad_loss.backward()
        for manual, tensor in zip(result.weight_grads, tape.weights):
            np.testing.assert_allclose(manual, tensor.grad.T, atol=1e-12)


class TestTruncatedMode:
    def test_truncated_differs_from_exact(self):
        """The paper's eq. 13 drops the filter-state adjoints; on a net
        with real temporal credit assignment the two gradients differ."""
        net = _active_network((6, 5, 4))
        x = _spikes((2, 18, 6), 0.4, 7)
        labels = np.array([0, 3])
        out, record = net.run(x, record=True)
        loss = CrossEntropyRateLoss()
        _, grad_out = loss.value_and_grad(out, labels)
        exact = backward(net, record, grad_out, mode="exact")
        truncated = backward(net, record, grad_out, mode="truncated")
        diffs = [np.max(np.abs(a - b)) for a, b in
                 zip(exact.weight_grads, truncated.weight_grads)]
        assert max(diffs) > 0.0

    def test_same_sign_correlation(self):
        """Truncation biases magnitude but the descent directions should
        correlate strongly (else the paper couldn't have trained with it)."""
        net = _active_network((6, 5, 4))
        x = _spikes((4, 18, 6), 0.4, 8)
        labels = np.array([0, 3, 1, 2])
        out, record = net.run(x, record=True)
        loss = CrossEntropyRateLoss()
        _, grad_out = loss.value_and_grad(out, labels)
        exact = backward(net, record, grad_out, mode="exact")
        truncated = backward(net, record, grad_out, mode="truncated")
        for a, b in zip(exact.weight_grads, truncated.weight_grads):
            av, bv = a.ravel(), b.ravel()
            denom = np.linalg.norm(av) * np.linalg.norm(bv)
            if denom > 0:
                assert np.dot(av, bv) / denom > 0.5

    def test_unknown_mode(self):
        net = _active_network((4, 3))
        x = _spikes((1, 5, 4), 0.5, 9)
        out, record = net.run(x, record=True)
        with pytest.raises(ValueError):
            backward(net, record, np.zeros_like(out), mode="rtrl")


@pytest.mark.parametrize("precision", ("float64", "float32"))
@pytest.mark.parametrize("mode", ("exact", "truncated"))
@pytest.mark.parametrize("kind", ("adaptive", "hard_reset", "hard_reset_euler"))
def test_zero_step_backward_returns_zero_gradients(kind, mode, precision):
    """A zero-step record has zero weight gradients and an empty input
    gradient in every kind and mode, not an IndexError."""
    net = SpikingNetwork((7, 5, 3), neuron_kind=kind, rng=0)
    out, record = net.run(np.zeros((3, 0, 7)), record=True,
                          precision=precision)
    grads = backward(net, record, np.zeros_like(out), mode=mode)
    for layer, grad in zip(net.layers, grads.weight_grads):
        assert grad.shape == layer.weight.shape
        assert grad.dtype == out.dtype
        assert not grad.any()
    assert grads.input_grad.shape == (3, 0, 7)


class TestValidation:
    def test_grad_shape_mismatch(self):
        net = _active_network((4, 3))
        x = _spikes((1, 5, 4), 0.5, 10)
        out, record = net.run(x, record=True)
        with pytest.raises(ShapeError):
            backward(net, record, np.zeros((1, 5, 2)))
