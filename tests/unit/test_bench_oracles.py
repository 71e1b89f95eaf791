"""Tier-1 pins for the benchmark's two oracle checks.

``perfbench``'s ``sweep`` workload recomputes one programming draw with
``hardware_network.run(x, engine="step")`` and requires the fused
``seed_accuracy`` to equal it; ``train`` requires the fused
``shard_grads`` to match ``shard_grads(..., engine="step")`` at rtol 1e-7,
atol 1e-10 after AdamW steps.  ``"step"`` is the reference oracle, the
autograd tape: these tests run both checks on the benchmark network
(``repro.common.benchcfg``) with every fused entry point made to raise
during the oracle call, so an oracle that silently runs the fused engine
fails here rather than passing the benchmark's checks vacuously.
"""

import contextlib
import math

import numpy as np
import pytest

from repro.common.benchcfg import (BENCH_SPIKE_DENSITY, BENCH_STEPS,
                                   bench_network)
from repro.common.rng import RandomState
from repro.core import CrossEntropyRateLoss, Trainer, TrainerConfig
from repro.hardware import (HardwareMappedNetwork, RRAMDeviceConfig,
                            seed_accuracy)
from repro.runtime.parallel import shard_grads

FUSED_ENTRY_POINTS = (
    ("repro.core.engine", "_advance"),     # the forward's one layer loop
    ("repro.core.engine", "fused_run"),
    ("repro.core.network", "fused_run"),
    ("repro.core.engine", "fused_backward"),
    ("repro.core.backprop", "fused_backward"),
)


@contextlib.contextmanager
def fused_engine_forbidden(monkeypatch):
    """Every fused forward/backward entry point raises inside the block."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the fused engine")

    with monkeypatch.context() as patch:
        for module, name in FUSED_ENTRY_POINTS:
            patch.setattr(f"{module}.{name}", refuse)
        yield


def bench_spikes(batch, seed):
    n_in = bench_network().sizes[0]
    return (RandomState(seed).random((batch, BENCH_STEPS, n_in))
            < BENCH_SPIKE_DENSITY).astype(np.float64)


@pytest.mark.parametrize("draw", [1, 43])
def test_sweep_oracle_draw_is_bitwise_the_fused_draw(monkeypatch, draw):
    network = bench_network()
    inputs = bench_spikes(64, seed=draw)
    ideal, _ = network.run(inputs)
    labels = np.argmax(ideal.sum(axis=1), axis=1)
    bits, variation = 4, 0.2
    device = RRAMDeviceConfig().replace(levels=2 ** bits, variation=variation)
    mapped = HardwareMappedNetwork(network, device, rng=RandomState(draw))

    with fused_engine_forbidden(monkeypatch):
        oracle, _ = mapped.hardware_network.run(inputs, engine="step")
    fused, _ = mapped.hardware_network.run(inputs)
    assert np.array_equal(oracle, fused)
    predictions = np.argmax(oracle.sum(axis=1), axis=1)
    oracle_accuracy = int(np.sum(predictions == labels)) / len(labels)
    assert oracle_accuracy == seed_accuracy(
        network, inputs, labels, bits=bits, variation=variation, seed=draw,
        batch_size=64)


@pytest.mark.parametrize("seed", [1, 7])
def test_train_oracle_gradients_match_after_adamw_steps(monkeypatch, seed):
    network = bench_network()
    loss = CrossEntropyRateLoss()
    classes = network.sizes[-1]
    labels = RandomState(seed).integers(classes, size=16)
    inputs = bench_spikes(16, seed=seed)
    with Trainer(network, loss, TrainerConfig(
            epochs=1, batch_size=16, learning_rate=1e-4,
            optimizer="adamw")) as trainer:
        for _ in range(3):
            assert math.isfinite(trainer.train_batch(inputs, labels))

    inputs, labels = inputs[:4], labels[:4]
    for mode in ("exact", "truncated"):
        fused = shard_grads(network, loss, inputs, labels, mode=mode)
        with fused_engine_forbidden(monkeypatch):
            oracle = shard_grads(network, loss, inputs, labels, mode=mode,
                                 engine="step")
        assert math.isclose(fused[0], oracle[0], rel_tol=1e-9)
        assert fused[1] == oracle[1] == 4
        for a, b in zip(fused[2], oracle[2]):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-10)
