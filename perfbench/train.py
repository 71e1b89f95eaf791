"""``train``: serial BPTT training steps on the paper-shape network.

One operation is one ``Trainer.train_batch`` call (fused forward, loss,
exact BPTT, AdamW update) on a batch of 100-step, 700-channel Bernoulli
spike trains, cycling over a fixed set of labelled batches; a block is
two steps.  The operating point is the repository's own: the standard
benchmark network and train batch (``repro.common.benchcfg``, the
``train-step`` rows of ``BENCH_throughput.json``) with the paper's
Table I optimizer and classification learning rate (``PAPER_CONFIG``).

Checks: every loss is finite, and after the measured window the fused
gradients of the trained network match the step-wise reference engine's
(the repository's test oracle) on a slice of the first batch.
"""

from __future__ import annotations

import math

import numpy as np

from timing import clock

N_BATCHES = 4
BLOCK_STEPS = 2
ORACLE_SAMPLES = 4


class Train:
    def __init__(self, seed: int):
        from repro.common.benchcfg import (BENCH_SPIKE_DENSITY, BENCH_STEPS,
                                           BENCH_TRAIN_BATCH, bench_network)
        from repro.common.rng import RandomState
        from repro.core import CrossEntropyRateLoss, Trainer, TrainerConfig
        from repro.experiments import PAPER_CONFIG

        root = RandomState(seed)
        self.network = bench_network()
        self.batch = BENCH_TRAIN_BATCH
        n_in, classes = self.network.sizes[0], self.network.sizes[-1]
        data = root.child("data")
        self.batches = [
            ((data.random((self.batch, BENCH_STEPS, n_in))
              < BENCH_SPIKE_DENSITY).astype(np.float64),
             data.integers(classes, size=self.batch))
            for _ in range(N_BATCHES)
        ]
        self.spike_sample = self.batches[0][0]
        self.trainer = Trainer(
            self.network, CrossEntropyRateLoss(),
            TrainerConfig(epochs=1, batch_size=self.batch,
                          learning_rate=PAPER_CONFIG.lr_classification,
                          optimizer=PAPER_CONFIG.optimizer))
        # Warm-up: the first step sizes the trainer's workspace arenas.
        self.trainer.train_batch(*self.batches[-1])

    def close(self) -> None:
        self.trainer.close()

    def measure(self, meter, trace) -> tuple[int, int]:
        """Blocks of ``BLOCK_STEPS`` steps; returns (steps, failed)."""
        train_batch = trace.wrap(self.trainer.train_batch)
        steps = failed = 0
        while meter.running():
            block = meter.start()
            for _ in range(BLOCK_STEPS):
                inputs, labels = self.batches[steps % N_BATCHES]
                start = clock()
                loss = train_batch(inputs, labels)
                block.latencies.append(clock() - start)
                block.items += self.batch
                block.ops += 1
                steps += 1
                failed += not math.isfinite(loss)
            meter.stop(block)
        return steps, failed

    def check(self) -> tuple[dict, int]:
        """Fused vs step-wise reference gradients on the trained weights."""
        from repro.core import CrossEntropyRateLoss
        from repro.runtime.parallel import shard_grads

        inputs, labels = self.batches[0]
        inputs, labels = inputs[:ORACLE_SAMPLES], labels[:ORACLE_SAMPLES]
        loss = CrossEntropyRateLoss()
        fused = shard_grads(self.network, loss, inputs, labels)
        step = shard_grads(self.network, loss, inputs, labels, engine="step")
        match = (math.isclose(fused[0], step[0], rel_tol=1e-9)
                 and all(np.allclose(a, b, rtol=1e-7, atol=1e-10)
                         for a, b in zip(fused[2], step[2])))
        return {"gradients_match_reference": match}, 0
