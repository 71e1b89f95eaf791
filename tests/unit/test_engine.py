"""Equivalence and regression tests for the fused simulation engine.

The fused engine (``repro.core.engine``) must be a drop-in replacement for
the step-wise reference path: identical spikes, membrane traces and
synapse-filter traces on the forward pass, and gradients matching the
reference BPTT to tolerance — for both neuron models, both gradient modes
and both precisions.  A recorded fused run must also keep feeding the
analysis/calibration code unchanged.
"""

import numpy as np
import pytest

from repro.analysis import firing_rate, raster_summary, trace_correlation
from repro.common.errors import ShapeError
from repro.core import (
    CrossEntropyRateLoss,
    SpikingLinear,
    SpikingNetwork,
    Trainer,
    TrainerConfig,
    backward,
    exp_scan,
    exp_scan_reverse,
    resolve_precision,
)
from repro.core.calibration import layer_firing_rates
from repro.core.engine import _spike_csr
from repro.core.filters import exponential_filter, exponential_filter_adjoint
from repro.common.rng import RandomState

KINDS = ("adaptive", "hard_reset", "hard_reset_euler")


def make_net_and_input(kind, sizes=(50, 40, 10), batch=8, steps=30, seed=0):
    net = SpikingNetwork(sizes, rng=seed, neuron_kind=kind)
    boost = 30.0 if kind == "hard_reset_euler" else 6.0
    for layer in net.layers:
        layer.weight *= boost
    rng = RandomState(seed + 1)
    x = (rng.random((batch, steps, sizes[0])) < 0.05).astype(np.float64)
    return net, x


# -- scan kernels -----------------------------------------------------------

def test_exp_scan_matches_exponential_filter():
    rng = RandomState(0)
    xs = rng.normal(0, 1, (4, 25, 7))
    got = exp_scan(xs.copy(), 0.6)
    want = exponential_filter(xs, 0.6, time_axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_exp_scan_in_place_aliasing():
    rng = RandomState(1)
    xs = rng.normal(0, 1, (3, 17, 5))
    want = exp_scan(xs.copy(), 0.8)
    buf = xs.copy()
    out = exp_scan(buf, 0.8, out=buf)
    assert out is buf
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_exp_scan_reverse_matches_filter_adjoint():
    rng = RandomState(2)
    xs = rng.normal(0, 1, (4, 25, 7))
    got = exp_scan_reverse(xs.copy(), 0.6)
    want = exponential_filter_adjoint(xs, 0.6, time_axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    buf = xs.copy()
    out = exp_scan_reverse(buf, 0.6, out=buf)
    assert out is buf
    np.testing.assert_allclose(out, want, rtol=1e-12)


# -- sparse kernels ---------------------------------------------------------

def test_events_matmul_matches_dense():
    rng = RandomState(3)
    # Includes event counts > 1.
    x = (rng.random((300, 80)) < 0.04).astype(np.float64)
    x[0, 0] = 3.0
    w_t = rng.normal(0, 1, (80, 16))
    np.testing.assert_allclose(_spike_csr(x).matmul(w_t), x @ w_t,
                               rtol=1e-12)


def test_events_t_matmul_matches_dense():
    rng = RandomState(4)
    x = (rng.random((300, 80)) < 0.04).astype(np.float64)
    dv = rng.normal(0, 1, (300, 16))
    np.testing.assert_allclose(_spike_csr(x).t_matmul(dv).T, dv.T @ x,
                               rtol=1e-12)


def test_events_reject_a_mismatched_operand():
    events = _spike_csr(np.eye(6))
    with pytest.raises(ShapeError):
        events.matmul(np.ones((5, 3)))
    with pytest.raises(ShapeError):
        events.t_matmul(np.ones(6))


# -- forward equivalence ----------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_forward_equivalence(kind):
    net, x = make_net_and_input(kind)
    out_step, rec_step = net.run(x, record=True, engine="step")
    out_fused, rec_fused = net.run(x, record=True, engine="fused")
    np.testing.assert_array_equal(out_step, out_fused)
    for ls, lf in zip(rec_step.layers, rec_fused.layers):
        np.testing.assert_array_equal(ls.spikes, lf.spikes)
        np.testing.assert_allclose(ls.v, lf.v, rtol=1e-9, atol=1e-12)
        assert (ls.k is None) == (lf.k is None)
        if ls.k is not None:
            np.testing.assert_allclose(ls.k, lf.k, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", ("adaptive", "hard_reset"))
def test_forward_final_state_parity(kind):
    """After a run, incremental layer/neuron state matches the step path."""
    net, x = make_net_and_input(kind)
    net.run(x, engine="step")
    step_k = [layer.k.copy() for layer in net.layers]
    step_neuron = []
    for layer in net.layers:
        if kind == "adaptive":
            step_neuron.append((layer.neuron.h.copy(),
                                layer.neuron.last_output.copy()))
        else:
            step_neuron.append((layer.neuron.v.copy(),))
    for record in (False, True):
        net.run(x, record=record, engine="fused")
        for i, layer in enumerate(net.layers):
            np.testing.assert_allclose(layer.k, step_k[i],
                                       rtol=1e-9, atol=1e-12)
            if kind == "adaptive":
                np.testing.assert_allclose(layer.neuron.h, step_neuron[i][0],
                                           rtol=1e-9, atol=1e-12)
                np.testing.assert_array_equal(layer.neuron.last_output,
                                              step_neuron[i][1])
            else:
                np.testing.assert_allclose(layer.neuron.v, step_neuron[i][0],
                                           rtol=1e-9, atol=1e-12)


def test_layer_run_equivalence():
    layer = SpikingLinear(30, 12, rng=0)
    layer.weight *= 6.0
    rng = RandomState(5)
    x = (rng.random((4, 20, 30)) < 0.08).astype(np.float64)
    out_step, rec_step = layer.run(x, record=True, engine="step")
    out_fused, rec_fused = layer.run(x, record=True, engine="fused")
    np.testing.assert_array_equal(out_step, out_fused)
    np.testing.assert_allclose(rec_step.v, rec_fused.v, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(rec_step.k, rec_fused.k, rtol=1e-9, atol=1e-12)


# -- backward equivalence ---------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ("exact", "truncated"))
def test_backward_equivalence(kind, mode):
    net, x = make_net_and_input(kind)
    out, record = net.run(x, record=True, engine="fused")
    loss = CrossEntropyRateLoss()
    labels = np.arange(x.shape[0]) % net.sizes[-1]
    _, grad_out = loss.value_and_grad(out, labels)
    ref = backward(net, record, grad_out, mode=mode, engine="reference")
    fused = backward(net, record, grad_out, mode=mode, engine="fused")
    for a, b in zip(ref.weight_grads, fused.weight_grads):
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)
    # input_grad is lazy in the fused result; reading it here exercises
    # the deferred matmul.
    np.testing.assert_allclose(ref.input_grad, fused.input_grad,
                               rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("mode", ("exact", "truncated"))
def test_backward_on_step_record(mode):
    """The fused backward accepts a record produced by the step engine."""
    net, x = make_net_and_input("adaptive")
    out, record = net.run(x, record=True, engine="step")
    loss = CrossEntropyRateLoss()
    labels = np.arange(x.shape[0]) % net.sizes[-1]
    _, grad_out = loss.value_and_grad(out, labels)
    ref = backward(net, record, grad_out, mode=mode, engine="reference")
    fused = backward(net, record, grad_out, mode=mode, engine="fused")
    for a, b in zip(ref.weight_grads, fused.weight_grads):
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(ref.input_grad, fused.input_grad,
                               rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("kind", ("adaptive", "hard_reset"))
def test_lazy_input_grad_unaffected_by_weight_updates(kind):
    """Reading input_grad after an in-place optimizer step must return the
    gradient for the weights the forward/backward pass actually used."""
    net, x = make_net_and_input(kind)
    out, record = net.run(x, record=True)
    loss = CrossEntropyRateLoss()
    labels = np.arange(x.shape[0]) % net.sizes[-1]
    _, grad_out = loss.value_and_grad(out, labels)
    ref = backward(net, record, grad_out, engine="reference")
    fused = backward(net, record, grad_out)
    for w in net.weights:
        w -= 0.05 * np.sign(w)   # in-place update, as every optimizer does
    np.testing.assert_allclose(fused.input_grad, ref.input_grad,
                               rtol=1e-8, atol=1e-12)


# -- precision --------------------------------------------------------------

def test_resolve_precision():
    assert resolve_precision(None) is None
    assert resolve_precision("float32") == np.float32
    assert resolve_precision("float64") == np.float64
    with pytest.raises(ValueError):
        resolve_precision("float16")


@pytest.mark.parametrize("kind", ("adaptive", "hard_reset"))
def test_float32_forward_matches_float64(kind):
    net, x = make_net_and_input(kind)
    out64, _ = net.run(x, precision="float64")
    out32, rec32 = net.run(x, record=True, precision="float32")
    assert out32.dtype == np.float32
    assert rec32.layers[0].v.dtype == np.float32
    # Spike decisions are robust to float32 rounding for this seeded data.
    np.testing.assert_array_equal(out64, out32.astype(np.float64))


@pytest.mark.parametrize("kind", ("adaptive", "hard_reset"))
@pytest.mark.parametrize("mode", ("exact", "truncated"))
def test_float32_gradients_close_to_float64(kind, mode):
    net, x = make_net_and_input(kind)
    out, rec64 = net.run(x, record=True, precision="float64")
    _, rec32 = net.run(x, record=True, precision="float32")
    loss = CrossEntropyRateLoss()
    labels = np.arange(x.shape[0]) % net.sizes[-1]
    _, grad_out = loss.value_and_grad(out, labels)
    g64 = backward(net, rec64, grad_out, mode=mode)
    g32 = backward(net, rec32, grad_out.astype(np.float32), mode=mode)
    for a, b in zip(g64.weight_grads, g32.weight_grads):
        assert b.dtype == np.float32
        np.testing.assert_allclose(a, b, rtol=2e-3, atol=1e-5)


def test_step_engine_honours_precision():
    net, x = make_net_and_input("adaptive")
    out, record = net.run(x, record=True, engine="step", precision="float32")
    assert out.dtype == np.float32
    assert record.layers[0].k.dtype == np.float32


# -- validation -------------------------------------------------------------

def test_invalid_engine_rejected():
    net, x = make_net_and_input("adaptive")
    with pytest.raises(ValueError):
        net.run(x, engine="warp")
    out, record = net.run(x, record=True)
    loss = CrossEntropyRateLoss()
    _, grad_out = loss.value_and_grad(out, np.arange(8) % 10)
    with pytest.raises(ValueError):
        backward(net, record, grad_out, engine="warp")
    with pytest.raises(ValueError):
        net.layers[0].run(x[:, :, :50], engine="warp")


def test_fused_shape_errors():
    net, x = make_net_and_input("adaptive")
    with pytest.raises(ShapeError):
        net.run(x[:, :, :-1])
    with pytest.raises(ShapeError):
        net.run(x[0])


# -- record regression: analysis and calibration stay unchanged -------------

def test_run_record_feeds_analysis_unchanged():
    net, x = make_net_and_input("adaptive")
    _, rec_step = net.run(x, record=True, engine="step")
    _, rec_fused = net.run(x, record=True, engine="fused")

    for rec in (rec_step, rec_fused):
        assert rec.outputs.shape == (8, 30, 10)
        assert rec.layer_input(0) is rec.inputs
        assert rec.layer_input(1) is rec.layers[0].spikes

    # The same analysis calls produce identical numbers from either record.
    assert firing_rate(rec_step.outputs) == firing_rate(rec_fused.outputs)
    s_step = raster_summary(rec_step.layers[0].spikes[0])
    s_fused = raster_summary(rec_fused.layers[0].spikes[0])
    assert s_step == s_fused
    corr = trace_correlation(rec_step.outputs[0], rec_fused.outputs[0])
    assert corr == pytest.approx(1.0)


def test_layer_firing_rates_uses_default_engine():
    net, x = make_net_and_input("adaptive")
    rates = layer_firing_rates(net, x)
    assert len(rates) == len(net.layers)
    assert all(0.0 <= r <= 1.0 for r in rates)


# -- trainer plumbing -------------------------------------------------------

def test_trainer_engines_agree_after_one_epoch():
    def build():
        net = SpikingNetwork((20, 16, 2), rng=7)
        for layer in net.layers:
            layer.weight *= 6.0
        return net

    rng = RandomState(8)
    x = (rng.random((16, 25, 20)) < 0.08).astype(np.float64)
    y = np.arange(16) % 2

    results = {}
    for engine in ("fused", "step"):
        net = build()
        config = TrainerConfig(epochs=1, batch_size=8, learning_rate=1e-3,
                               shuffle=False, engine=engine)
        trainer = Trainer(net, CrossEntropyRateLoss(), config, rng=9)
        trainer.fit(x, y)
        results[engine] = [w.copy() for w in net.weights]
    for a, b in zip(results["fused"], results["step"]):
        np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-10)


def test_trainer_float32_precision_trains():
    net = SpikingNetwork((20, 16, 2), rng=7)
    for layer in net.layers:
        layer.weight *= 6.0
    rng = RandomState(8)
    x = (rng.random((16, 25, 20)) < 0.08).astype(np.float64)
    y = np.arange(16) % 2
    config = TrainerConfig(epochs=1, batch_size=8, learning_rate=1e-3,
                           precision="float32")
    trainer = Trainer(net, CrossEntropyRateLoss(), config, rng=9)
    history = trainer.fit(x, y)
    assert np.isfinite(history[0].train_loss)
    assert all(np.all(np.isfinite(w)) for w in net.weights)


def test_trainer_config_validation():
    with pytest.raises(Exception):
        TrainerConfig(engine="warp").validate()
    with pytest.raises(Exception):
        TrainerConfig(precision="float16").validate()
