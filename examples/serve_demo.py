"""Serve-demo: boot the model server from a registry checkpoint and
stream one SHD-shaped sample through a live session.

This is the serving stack end-to-end (``make serve-demo``):

1. a versioned :class:`~repro.serve.ModelRegistry` under
   ``artifacts/registry`` (a 700-128-128-20 SHD-architecture checkpoint
   is created and saved on first run — calibrated, not trained: the demo
   shows the serving plumbing, not accuracy);
2. a :class:`~repro.serve.ModelServer` cold-started from the registry's
   latest version;
3. two synthetic SHD samples (``repro.data.shd``: formant speech
   through the artificial cochlea, ``(100, 700)`` spikes) streamed
   concurrently through two sessions, in 10-step and 7-step chunks —
   a tick that serves both pads the shorter chunk, the others are
   uniform.  Per-chunk output spikes arrive incrementally, and each
   streamed output is verified bitwise against a single whole-sequence
   pass of its sample (chunk- and batch-invariance are the streaming
   engine's contract; see docs/serving.md).  The script exits non-zero
   unless both streams match.

Run:  PYTHONPATH=src python examples/serve_demo.py
"""

import os

import numpy as np

from repro import ModelRegistry, ModelServer, SpikingNetwork
from repro.core.calibration import calibrate_firing
from repro.data.shd import SHD_CLASS_NAMES, SyntheticSHDConfig, generate_shd

REGISTRY_ROOT = os.path.join("artifacts", "registry")
MODEL = "shd-mlp"
CHUNKS = (10, 7)   # per session: its chunk length in steps


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
    streams = []
    for index, chunk in zip((3, 5), CHUNKS):
        session = server.open_session()
        streams.append((session, dataset.inputs[index], chunk, []))
        target = SHD_CLASS_NAMES[int(dataset.targets[index])]
        print(f"\nsession {session}: one sample (class {target!r}) "
              f"in {chunk}-step chunks")

    print("\nticks (each session's output spikes this tick):")
    tick = 0
    while any(tick * chunk < len(sample) for _, sample, chunk, _ in streams):
        tickets = [(session, outputs, server.submit(
                        session, sample[tick * chunk:(tick + 1) * chunk]))
                   for session, sample, chunk, outputs in streams
                   if tick * chunk < len(sample)]
        server.flush()   # one tick: both sessions' chunks coalesce
        for _, outputs, ticket in tickets:
            outputs.append(ticket.outputs)
        lengths = {len(ticket.outputs) for *_, ticket in tickets}
        kind = "padded" if len(lengths) > 1 else "uniform"
        print(f"  tick {tick:2d} ({kind:7s}): " + ", ".join(
            f"{session} {int(ticket.outputs.sum()):3d}"
            for session, _, ticket in tickets))
        tick += 1

    print()
    matches = []
    for session, sample, chunk, outputs in streams:
        streamed = np.concatenate(outputs, axis=0)
        predicted = SHD_CLASS_NAMES[int(streamed.sum(axis=0).argmax())]
        # Reference: the same sample in one whole-sequence pass.
        offline, _ = server.network.run(sample[None])
        matches.append(np.array_equal(offline[0], streamed))
        print(f"session {session}: rate-code prediction {predicted!r} "
              f"(untrained demo weights); {chunk}-step chunks == single "
              f"whole-sequence pass: {matches[-1]}")
    if not all(matches):
        raise SystemExit("streamed and whole-sequence outputs diverged")


if __name__ == "__main__":
    main()
