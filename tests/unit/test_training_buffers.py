"""A training step computes only what BPTT reads.

The fused backward moves the synapse filter onto the adjoint, so it never
reads a record's ``k`` trace.  These tests pin that: training runs with
``LayerStepRecord.k`` made to raise, the trainer's workspace never holds
an input-wide ``(batch, T, n_in)`` buffer, and a ``k`` read on demand is
bitwise the scan of the layer's input.
"""

import numpy as np
import pytest

from repro.core import (CrossEntropyRateLoss, SpikingNetwork, Trainer,
                        TrainerConfig)
from repro.core.engine import exp_scan
from repro.core.layers import LayerStepRecord

# Distinct widths, so a (batch, T, n_in) buffer of layer 0 cannot be
# confused with any other layer's tensors.
SIZES = (30, 16, 12, 4)
BATCH, STEPS = 8, 20


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    x = (rng.random((BATCH, STEPS, SIZES[0])) < 0.3).astype(np.float64)
    y = np.arange(BATCH) % SIZES[-1]
    return x, y


def make_net(kind):
    net = SpikingNetwork(SIZES, neuron_kind=kind, rng=2)
    for layer in net.layers:
        layer.weight *= 4.0   # enough activity for nonzero gradients
    return net


@pytest.fixture
def k_unreadable(monkeypatch):
    def read(self):
        raise AssertionError("training read LayerStepRecord.k")
    monkeypatch.setattr(LayerStepRecord, "k", property(read))


def workspace_shapes(ws):
    """Shapes of every idle and lent buffer of a workspace."""
    idle = [key[0] for key, stack in ws._free.items() for _ in stack]
    lent = [arr.shape for _, arr in ws._lent.values()]
    return idle + lent


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
class TestTrainingNeverReadsK:
    def test_serial_with_workspace(self, k_unreadable, kind, precision):
        x, y = make_batch()
        with Trainer(make_net(kind), CrossEntropyRateLoss(), TrainerConfig(
                epochs=1, batch_size=BATCH, learning_rate=1e-2,
                precision=precision), rng=1) as trainer:
            for _ in range(2):    # warm-up, then a steady-state step
                assert np.isfinite(trainer.train_batch(x, y))
            shapes = workspace_shapes(trainer._workspace)
            assert shapes, "the trainer ran without its workspace"
            assert (BATCH, STEPS, SIZES[0]) not in shapes

    def test_two_workers(self, k_unreadable, kind, precision):
        # Pool workers fork after the patch, so they inherit it.
        x, y = make_batch()
        with Trainer(make_net(kind), CrossEntropyRateLoss(), TrainerConfig(
                epochs=1, batch_size=BATCH, learning_rate=1e-2,
                precision=precision, workers=2), rng=1) as trainer:
            for _ in range(2):
                assert np.isfinite(trainer.train_batch(x, y))


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("engine", ["fused", "step"])
def test_derived_k_is_the_scan_of_the_layer_input(kind, precision, engine):
    x, _ = make_batch(seed=1)
    net = make_net(kind)
    _, record = net.run(x, record=True, engine=engine, precision=precision)
    for index, (layer, layer_record) in enumerate(zip(net.layers,
                                                      record.layers)):
        if kind != "adaptive":
            assert layer_record.k is None
            continue
        expected = exp_scan(record.layer_input(index), layer.alpha)
        k = layer_record.k
        assert k.dtype == np.dtype(precision)
        assert np.array_equal(k, expected)
        assert layer_record.k is k   # derived once, then cached
