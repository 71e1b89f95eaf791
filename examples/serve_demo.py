"""Serve-demo: boot the model server from a registry checkpoint and
stream one SHD-shaped sample through a live session.

This is the serving stack end-to-end (``make serve-demo``):

1. a versioned :class:`~repro.serve.ModelRegistry` under
   ``artifacts/registry`` (a 700-128-128-20 SHD-architecture checkpoint
   is created and saved on first run — calibrated, not trained: the demo
   shows the serving plumbing, not accuracy);
2. a :class:`~repro.serve.ModelServer` cold-started from the registry's
   latest version;
3. one synthetic SHD sample (``repro.data.shd``: formant speech through
   the artificial cochlea, ``(100, 700)`` spikes) streamed through a
   session in 10-step chunks — per-chunk output spikes arrive
   incrementally, and the streamed output is verified bitwise against a
   single whole-sequence pass of the same sample (chunk-invariance is
   the streaming engine's contract; see docs/serving.md).

Run:  PYTHONPATH=src python examples/serve_demo.py
"""

import os

import numpy as np

from repro import ModelRegistry, ModelServer, SpikingNetwork
from repro.core.calibration import calibrate_firing
from repro.data.shd import SHD_CLASS_NAMES, SyntheticSHDConfig, generate_shd

REGISTRY_ROOT = os.path.join("artifacts", "registry")
MODEL = "shd-mlp"
CHUNK = 10


def ensure_checkpoint(registry: ModelRegistry, sample_inputs) -> str:
    """Save a calibrated SHD-architecture checkpoint on first run."""
    version = registry.latest(MODEL)
    if version is not None:
        return version
    network = SpikingNetwork((700, 128, 128, 20), rng=0)
    calibrate_firing(network, sample_inputs, target_rate=0.1)
    return registry.save(MODEL, network,
                         meta={"task": "synthetic-shd", "trained": False,
                               "note": "calibrated demo checkpoint"})


def main():
    print(__doc__)
    dataset = generate_shd(SyntheticSHDConfig(n_per_class=1))
    registry = ModelRegistry(REGISTRY_ROOT)
    version = ensure_checkpoint(registry, dataset.inputs[:8])
    print(f"registry {REGISTRY_ROOT}: serving {MODEL}:{version} "
          f"({len(registry.versions(MODEL))} version(s) on disk)")

    server = ModelServer.from_registry(registry, MODEL, max_batch=8,
                                       max_wait_ms=2.0)
    sample = dataset.inputs[3]          # (100, 700) spike raster
    target = int(dataset.targets[3])
    session = server.open_session()
    print(f"\nstreaming one sample (class {SHD_CLASS_NAMES[target]!r}) "
          f"through session {session} in {CHUNK}-step chunks:")

    chunks = []
    for start in range(0, sample.shape[0], CHUNK):
        outputs = server.infer(session, sample[start:start + CHUNK])
        chunks.append(outputs)
        print(f"  steps {start:3d}-{start + outputs.shape[0] - 1:3d}: "
              f"{int(outputs.sum()):3d} output spikes"
              f"  (session total {server.session(session).steps} steps)")

    streamed = np.concatenate(chunks, axis=0)
    rates = streamed.sum(axis=0)
    predicted = int(rates.argmax())
    # Reference: the same sample in one whole-sequence pass.
    offline, _ = server.network.run(sample[None])
    match = np.array_equal(offline[0], streamed)
    print(f"\nrate-code prediction: {SHD_CLASS_NAMES[predicted]!r} "
          f"(target {SHD_CLASS_NAMES[target]!r}; untrained demo weights)")
    print(f"streamed chunks == single whole-sequence pass: {match}")
    if not match:
        raise SystemExit("streamed and whole-sequence outputs diverged")


if __name__ == "__main__":
    main()
