"""A training step computes only what BPTT reads.

The fused backward moves the synapse filter onto the adjoint, so it never
reads a record's ``k`` trace.  These tests pin that: training runs with
``LayerStepRecord.k`` made to raise, the training thread's arena never
holds an input-wide ``(batch, T, n_in)`` float buffer (the input's
boolean spike masks are the only input-wide scratch), and a ``k`` read
on demand is bitwise the scan of the layer's input.
"""

import threading

import numpy as np
import pytest

from repro.core import (CrossEntropyRateLoss, SpikingNetwork, Trainer,
                        TrainerConfig)
from repro.core.filters import exp_scan
from repro.core.layers import LayerStepRecord
from repro.core.workspace import arena

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


def arena_shapes(buffers):
    """Shapes of every idle and lent float buffer of an arena."""
    idle = [key for key, stack in buffers._free.items() for _ in stack]
    lent = [key for key, _ in buffers._lent.values()]
    return [shape for shape, dtype in idle + lent if dtype.kind == "f"]


def in_thread(fn):
    """``fn()`` on a new thread, so on an arena of its own; its result."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert result, "the thread raised or hung"
    return result[0]


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
class TestTrainingNeverReadsK:
    def test_serial_with_workspace(self, k_unreadable, kind, precision):
        x, y = make_batch()

        def train():
            with Trainer(make_net(kind), CrossEntropyRateLoss(),
                         TrainerConfig(epochs=1, batch_size=BATCH,
                                       learning_rate=1e-2,
                                       precision=precision),
                         rng=1) as trainer:
                for _ in range(2):   # warm-up, then a steady-state step
                    assert np.isfinite(trainer.train_batch(x, y))
            return arena_shapes(arena())

        shapes = in_thread(train)
        assert shapes, "the trainer ran without the thread's arena"
        assert not {(BATCH, STEPS, SIZES[0]),
                    (STEPS, BATCH, SIZES[0])} & set(shapes)

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
def test_derived_k_is_the_scan_of_the_layer_input(kind, precision):
    x, _ = make_batch(seed=1)
    net = make_net(kind)
    _, record = net.run(x, record=True, precision=precision)
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
