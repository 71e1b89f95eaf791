"""``sweep``: the paper's Fig. 8 device-variation sweep.

One operation is one programming draw: ``seed_accuracy`` maps the network
onto differential RRAM crossbars at a (bits, variation, seed) grid point
-- quantize, program with lognormal variation, read back -- and classifies
a 64-sample evaluation set with the realised weights.  The grid is the
``ci`` profile of ``run_fig8`` (2 draws x 4 and 5 bits x variation 0 to
0.5), the evaluation set the harness's ``variation`` kind default; the
grid is cycled, so draws repeat within a run, and a block is one sweep
of the variation axis.

The labels are the ideal software network's own predictions, so accuracy
is agreement with the unmapped model: what Fig. 8 shows degrading as
variation grows.

Checks: a repeated draw gives the same accuracy; one draw per run is
recomputed with the step-wise reference engine on the same realisation;
every variation-free point keeps most of the ideal predictions.

The network is the repository's fixed benchmark network; the seed draws
the evaluation set and the programming draws.
"""

from __future__ import annotations

import numpy as np

from timing import clock

EVAL_SAMPLES = 64
BITS = (4, 5)
VARIATIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
DRAWS = 2
MIN_CLEAN_AGREEMENT = 0.5


class Sweep:
    def __init__(self, seed: int):
        from repro.common.benchcfg import (BENCH_SPIKE_DENSITY, BENCH_STEPS,
                                           bench_network)
        from repro.common.rng import RandomState
        from repro.hardware import seed_accuracy

        root = RandomState(seed)
        self.seed_accuracy = seed_accuracy
        self.network = bench_network()
        n_in = self.network.sizes[0]
        self.inputs = (root.child("data").random(
            (EVAL_SAMPLES, BENCH_STEPS, n_in))
            < BENCH_SPIKE_DENSITY).astype(np.float64)
        self.spike_sample = self.inputs
        outputs, _ = self.network.run(self.inputs)
        self.labels = np.argmax(outputs.sum(axis=1), axis=1)
        # Grouped so that every block of len(VARIATIONS) consecutive
        # draws spans the whole variation axis: blocks cost the same.
        self.tasks = [(bits, variation, root.child(f"draw{d}").seed)
                      for d in range(DRAWS) for bits in BITS
                      for variation in VARIATIONS]
        # Warm-up: one draw, outside the measured window.
        self._evaluate(self.seed_accuracy, self.tasks[0])
        # A draw with variation, early in the cycle so every run has it.
        self.oracle_task = self.tasks[1 + seed % (len(VARIATIONS) - 1)]

    def close(self) -> None:
        pass

    def _evaluate(self, evaluate, task) -> float:
        bits, variation, draw = task
        return evaluate(self.network, self.inputs, self.labels, bits=bits,
                        variation=variation, seed=draw,
                        batch_size=EVAL_SAMPLES)

    def measure(self, meter, trace) -> tuple[int, int]:
        """Blocks of one variation row; returns (draws, failed)."""
        evaluate = trace.wrap(self.seed_accuracy)
        self.first = {}
        draws = failed = 0
        while meter.running():
            block = meter.start()
            for _ in VARIATIONS:
                task = self.tasks[draws % len(self.tasks)]
                start = clock()
                accuracy = self._evaluate(evaluate, task)
                block.latencies.append(clock() - start)
                block.items += EVAL_SAMPLES
                block.ops += 1
                draws += 1
                failed += self.first.setdefault(task, accuracy) != accuracy
            meter.stop(block)
        return draws, failed

    def check(self) -> tuple[dict, int]:
        clean = [acc for (_, variation, _), acc in self.first.items()
                 if variation == 0.0]
        return {
            "matches_reference_engine": (
                self.oracle_task in self.first
                and self._oracle() == self.first[self.oracle_task]),
            "clean_points_agree": min(clean, default=0.0)
            >= MIN_CLEAN_AGREEMENT,
        }, 0

    def _oracle(self) -> float:
        """The oracle draw's accuracy through the step-wise engine."""
        from repro.common.rng import RandomState
        from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig

        bits, variation, draw = self.oracle_task
        device = RRAMDeviceConfig().replace(levels=2 ** bits,
                                            variation=variation)
        mapped = HardwareMappedNetwork(self.network, device,
                                       rng=RandomState(draw))
        outputs, _ = mapped.hardware_network.run(self.inputs, engine="step")
        predictions = np.argmax(outputs.sum(axis=1), axis=1)
        return int(np.sum(predictions == self.labels)) / EVAL_SAMPLES
