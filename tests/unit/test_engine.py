"""Equivalence and regression tests for the fused simulation engine.

The fused engine (``repro.core.engine``) must reproduce the reference
oracle, the autograd tape's step-by-step unroll
(``repro.autograd.reference.unroll``): identical spikes, membrane traces
and synapse-filter traces on the forward pass, and gradients matching the
tape's to tolerance — for every neuron kind, both gradient modes and both
precisions.  A recorded fused run must also keep feeding the
analysis/calibration code unchanged.
"""

import numpy as np
import pytest

from repro.analysis import firing_rate, raster_summary, trace_correlation
from repro.autograd import unroll
from repro.common.errors import ShapeError
from repro.core import (
    CrossEntropyRateLoss,
    SpikingLinear,
    SpikingNetwork,
    Trainer,
    TrainerConfig,
    backward,
    make_optimizer,
    resolve_precision,
    run_in_batches,
)
from repro.core.calibration import layer_firing_rates
from repro.core.engine import _spike_csr
from repro.common.rng import RandomState
from repro.runtime.parallel import shard_grads

KINDS = ("adaptive", "hard_reset", "hard_reset_euler")


def make_net_and_input(kind, sizes=(50, 40, 10), batch=8, steps=30, seed=0):
    net = SpikingNetwork(sizes, rng=seed, neuron_kind=kind)
    boost = 30.0 if kind == "hard_reset_euler" else 6.0
    for layer in net.layers:
        layer.weight *= boost
    rng = RandomState(seed + 1)
    x = (rng.random((batch, steps, sizes[0])) < 0.05).astype(np.float64)
    return net, x


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
    tape = unroll(net, x)
    out_fused, rec_fused = net.run(x, record=True, engine="fused")
    np.testing.assert_array_equal(tape.spikes(), out_fused)
    out_step, record = net.run(x, engine="step")
    assert record is None
    np.testing.assert_array_equal(out_step, out_fused)
    for index, lf in enumerate(rec_fused.layers):
        np.testing.assert_array_equal(tape.spikes(index), lf.spikes)
        np.testing.assert_allclose(tape.v(index), lf.v, rtol=1e-9, atol=1e-12)
        assert (tape.k(index) is None) == (lf.k is None)
        if lf.k is not None:
            np.testing.assert_allclose(tape.k(index), lf.k,
                                       rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", ("adaptive", "hard_reset"))
def test_forward_final_state_parity(kind):
    """The state a stream of the whole sequence leaves matches the
    tape's final state (an adaptive layer carries ``g = k W^T``, the
    drive, in place of ``k``)."""
    net, x = make_net_and_input(kind)
    tape = unroll(net, x)
    _, stream = net.run_stream(x)
    for layer, mine, state in zip(net.layers, stream.layers, tape.state):
        if kind == "adaptive":
            np.testing.assert_allclose(mine["g"], state["k"] @ layer.weight.T,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(mine["h"], state["h"],
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_array_equal(mine["o"], state["o"])
        else:
            np.testing.assert_allclose(mine["v"], state["v"],
                                       rtol=1e-9, atol=1e-12)


def test_layer_run_equivalence():
    layer = SpikingLinear(30, 12, rng=0)
    layer.weight *= 6.0
    rng = RandomState(5)
    x = (rng.random((4, 20, 30)) < 0.08).astype(np.float64)
    alone = SpikingNetwork.from_layers([layer])
    tape = unroll(alone, x)
    out_fused, record = alone.run(x, record=True)
    rec_fused = record.layers[0]
    np.testing.assert_array_equal(tape.spikes(), out_fused)
    np.testing.assert_allclose(tape.v(0), rec_fused.v, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(tape.k(0), rec_fused.k, rtol=1e-9, atol=1e-12)


# -- backward equivalence ---------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ("exact", "truncated"))
def test_backward_equivalence(kind, mode):
    net, x = make_net_and_input(kind)
    out, record = net.run(x, record=True, engine="fused")
    loss = CrossEntropyRateLoss()
    labels = np.arange(x.shape[0]) % net.sizes[-1]
    _, grad_out = loss.value_and_grad(out, labels)
    ref = unroll(net, x, mode=mode).backward(grad_out)
    fused = backward(net, record, grad_out, mode=mode)
    for a, b in zip(ref.weight_grads, fused.weight_grads):
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)
    # input_grad is lazy in the fused result; reading it here exercises
    # the deferred matmul.
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
    ref = unroll(net, x).backward(grad_out)
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
    out, _ = net.run(x, engine="step", precision="float32")
    assert out.dtype == np.float32
    tape = unroll(net, x, precision="float32")
    assert tape.k(0).dtype == tape.v(0).dtype == np.float32
    assert tape.backward(np.ones_like(out)).weight_grads[0].dtype == np.float32


# -- validation -------------------------------------------------------------

def test_invalid_engine_rejected():
    net, x = make_net_and_input("adaptive")
    with pytest.raises(ValueError):
        net.run(x, engine="warp")


@pytest.mark.parametrize("extra", [dict(record=True),
                                   dict(weights=[None, None])])
def test_step_engine_returns_outputs_only(extra):
    """The tape run has no record or weight override."""
    net, x = make_net_and_input("adaptive")
    with pytest.raises(ValueError, match="fused-engine"):
        net.run(x, engine="step", **extra)


def test_fused_shape_errors():
    net, x = make_net_and_input("adaptive")
    with pytest.raises(ShapeError):
        net.run(x[:, :, :-1])
    with pytest.raises(ShapeError):
        net.run(x[0])


@pytest.mark.parametrize("kind", ("adaptive", "hard_reset"))
@pytest.mark.parametrize("record", (False, True))
@pytest.mark.parametrize("shape", ((0, 5), (3, 0), (0, 0)),
                         ids=("no-samples", "no-steps", "neither"))
def test_an_empty_run_returns_empty_tensors(kind, record, shape):
    """No samples or no steps: empty outputs and record, no error."""
    net, _ = make_net_and_input(kind)
    batch, steps = shape
    x = np.zeros((batch, steps, net.sizes[0]))
    outputs, rec = net.run(x, record=record)
    assert outputs.shape == (batch, steps, net.sizes[-1])
    assert (rec is not None) == record
    if record:
        for layer, layer_record in zip(net.layers, rec.layers):
            assert layer_record.v.shape == (batch, steps, layer.n_out)
            assert layer_record.spikes.shape == (batch, steps, layer.n_out)
            if kind == "adaptive":
                assert layer_record.k.shape == (batch, steps, layer.n_in)


def test_an_empty_evaluation_set_is_empty_serially_and_pooled():
    from repro.runtime import WorkerPool
    net, _ = make_net_and_input("adaptive")
    x = np.zeros((0, 5, net.sizes[0]))
    serial = run_in_batches(net, x, 4)
    assert serial.shape == (0, 5, net.sizes[-1])
    with WorkerPool(net, workers=1) as pool:
        pooled = run_in_batches(net, x, 4, pool=pool)
    assert pooled.shape == serial.shape and pooled.dtype == serial.dtype


# -- record regression: analysis and calibration stay unchanged -------------

def test_run_record_feeds_analysis_unchanged():
    net, x = make_net_and_input("adaptive")
    tape = unroll(net, x)
    _, rec_fused = net.run(x, record=True, engine="fused")

    assert rec_fused.outputs.shape == (8, 30, 10)
    assert rec_fused.layer_input(0) is rec_fused.inputs
    assert rec_fused.layer_input(1) is rec_fused.layers[0].spikes

    # The same analysis calls produce identical numbers from the record
    # and from the tape's arrays.
    assert firing_rate(tape.spikes()) == firing_rate(rec_fused.outputs)
    s_tape = raster_summary(tape.spikes(0)[0])
    s_fused = raster_summary(rec_fused.layers[0].spikes[0])
    assert s_tape == s_fused
    corr = trace_correlation(tape.spikes()[0], rec_fused.outputs[0])
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
    loss = CrossEntropyRateLoss()

    net = build()
    config = TrainerConfig(epochs=1, batch_size=8, learning_rate=1e-3,
                           shuffle=False)
    Trainer(net, loss, config, rng=9).fit(x, y)

    tape_net = build()
    optimizer = make_optimizer("adamw", tape_net.weights, lr=1e-3,
                               weight_decay=0.0)
    for start in (0, 8):
        _, _, grads = shard_grads(tape_net, loss, x[start:start + 8],
                                  y[start:start + 8], engine="step")
        optimizer.step(grads)
    for a, b in zip(net.weights, tape_net.weights):
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
        TrainerConfig(precision="float16").validate()
