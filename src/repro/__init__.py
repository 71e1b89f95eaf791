"""repro — reproduction of "Neuromorphic Algorithm-hardware Codesign for
Temporal Pattern Learning" (Fang et al., DAC 2021).

The package is organised as:

* :mod:`repro.core` — the paper's contribution: filter-based
  adaptive-threshold LIF neurons, surrogate-gradient BPTT, the two task
  losses, optimizers and trainer, and the per-thread buffer arena every
  engine call borrows (:func:`repro.core.workspace.arena`).
* :mod:`repro.data` — synthetic stand-ins for N-MNIST and SHD (procedural
  digit glyphs + DVS camera simulator; formant speech + artificial cochlea)
  and the pattern-association task.
* :mod:`repro.hardware` — the codesigned hardware model: RRAM devices,
  quantization, crossbars, a behavioral analog circuit simulator (MNA),
  the paper's Fig. 6 neuron circuit, and power/energy/area estimation.
* :mod:`repro.runtime` — the parallel runtime: a shared-memory worker
  pool for data-parallel training / sharded inference / parallel sweeps.
* :mod:`repro.serve` — the serving layer: streaming stateful inference
  (``SpikingNetwork.run_stream`` + ``StreamState``), per-client sessions,
  a micro-batching scheduler, and a versioned model registry.
* :mod:`repro.autograd` — a minimal reverse-mode AD engine used to
  cross-check the hand-derived BPTT.
* :mod:`repro.analysis` — spike-train metrics and distances.
* :mod:`repro.experiments` — the per-table/per-figure experiment registry
  and CLI (``python -m repro.experiments ...``).

Quickstart::

    from repro import SpikingNetwork, Trainer, TrainerConfig, CrossEntropyRateLoss
    net = SpikingNetwork((100, 64, 10), rng=0)
    trainer = Trainer(net, CrossEntropyRateLoss(), TrainerConfig(epochs=5))
    trainer.fit(train_x, train_y, test_x, test_y)
"""

from .common import RandomState
from .core import (
    AdaptiveLIFNeuron,
    CrossEntropyRateLoss,
    ErfcSurrogate,
    HardResetLIFNeuron,
    NeuronParameters,
    SpikingLinear,
    SpikingNetwork,
    StreamState,
    Trainer,
    TrainerConfig,
    VanRossumLoss,
    backward,
)
from .runtime import WorkerPool
from .serve import MicroBatcher, ModelRegistry, ModelServer

__version__ = "1.2.0"

__all__ = [
    "RandomState",
    "AdaptiveLIFNeuron",
    "CrossEntropyRateLoss",
    "ErfcSurrogate",
    "HardResetLIFNeuron",
    "NeuronParameters",
    "SpikingLinear",
    "SpikingNetwork",
    "Trainer",
    "TrainerConfig",
    "VanRossumLoss",
    "backward",
    "StreamState",
    "WorkerPool",
    "MicroBatcher",
    "ModelRegistry",
    "ModelServer",
    "__version__",
]
