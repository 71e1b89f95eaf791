"""Serving workloads: what the open-loop client streams actually carry.

Until now only the synthetic Bernoulli "SHD-shaped" chunks flowed through
the server.  This module gives the load generator (and the scenario
harness) the repo's *real* input modalities as first-class workloads:

* ``synthetic`` — i.i.d. Bernoulli spikes at a configured density (what
  ``open_loop`` streams when no workload is named);
* ``speech``    — spoken-digit waveforms (:mod:`repro.data.speech`)
  through the cochlea front-end (700 channels, the SHD shape);
* ``dvs``       — saccade-driven DVS recordings of stroke glyphs
  (:mod:`repro.data.dvs`; 34x34x2 = 2312 channels, the N-MNIST shape);
* ``glyph``     — Poisson rate-coded 28x28 glyph images
  (:mod:`repro.data.glyphs` + :func:`repro.data.encoders.poisson_encode`,
  784 channels);
* mixes         — ``"speech+dvs"`` style weighted blends of same-width
  workloads (:class:`WorkloadMix`).

A workload owns a small pool of pre-rendered samples (sensor simulation
is expensive; load generation must not be) built deterministically from
its constructor seed, and draws chunks from the pool with the *caller's*
rng — so a scenario run is exactly reproducible for a given seed while
successive chunks still vary.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ExperimentError, ShapeError
from ..common.rng import RandomState, as_random_state

__all__ = [
    "Workload",
    "SyntheticWorkload",
    "SpeechWorkload",
    "DVSWorkload",
    "GlyphWorkload",
    "WorkloadMix",
    "WORKLOAD_CHANNELS",
    "make_workload",
]

#: Native channel width of each named workload.
WORKLOAD_CHANNELS = {
    "synthetic": 700,
    "speech": 700,
    "dvs": 2312,   # 34 x 34 x 2 event polarities
    "glyph": 784,  # 28 x 28 pixels
}


class Workload:
    """Base class: a named source of ``(steps, channels)`` spike chunks."""

    name: str = "workload"

    def __init__(self, channels: int):
        if channels < 1:
            raise ExperimentError(f"workload needs >= 1 channel, "
                                  f"got {channels}")
        self.channels = int(channels)

    def sample(self, steps: int,
               rng: RandomState | int | None = None) -> np.ndarray:
        """One ``(steps, channels)`` float64 spike chunk."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, " \
               f"channels={self.channels})"


class SyntheticWorkload(Workload):
    """I.i.d. Bernoulli spikes — ``open_loop``'s default payload."""

    name = "synthetic"

    def __init__(self, channels: int = WORKLOAD_CHANNELS["synthetic"],
                 density: float = 0.03):
        super().__init__(channels)
        if not 0.0 < density <= 1.0:
            raise ExperimentError(f"spike density must be in (0, 1], "
                                  f"got {density}")
        self.density = float(density)

    def sample(self, steps, rng=None):
        rng = as_random_state(rng)
        return (rng.random((steps, self.channels))
                < self.density).astype(np.float64)


class _PooledWorkload(Workload):
    """Shared machinery: a lazily built pool of pre-rendered rasters.

    Subclasses implement :meth:`_render` (one ``(pool_steps, channels)``
    raster from a pool-local rng).  :meth:`sample` picks a pool entry and
    a random time window with the caller's rng — cheap per chunk, fully
    deterministic per (constructor seed, caller rng).
    """

    def __init__(self, channels: int, seed: int = 0, pool_size: int = 4,
                 pool_steps: int = 100):
        super().__init__(channels)
        if pool_size < 1:
            raise ExperimentError(f"pool_size must be >= 1, got {pool_size}")
        self.seed = int(seed)
        self.pool_size = int(pool_size)
        self.pool_steps = int(pool_steps)
        self._pool: list[np.ndarray] | None = None

    def _render(self, index: int, rng: RandomState) -> np.ndarray:
        raise NotImplementedError

    @property
    def pool(self) -> list[np.ndarray]:
        if self._pool is None:
            base = RandomState(self.seed)
            self._pool = [
                np.ascontiguousarray(
                    self._render(i, base.child(f"{self.name}-{i}")),
                    dtype=np.float64)
                for i in range(self.pool_size)
            ]
            for raster in self._pool:
                if raster.shape != (self.pool_steps, self.channels):
                    raise ShapeError(
                        f"{self.name} pool raster has shape {raster.shape}, "
                        f"expected {(self.pool_steps, self.channels)}")
        return self._pool

    def sample(self, steps, rng=None):
        rng = as_random_state(rng)
        raster = self.pool[int(rng.integers(self.pool_size))]
        if steps <= self.pool_steps:
            offset = int(rng.integers(self.pool_steps - steps + 1))
            return raster[offset:offset + steps].copy()
        reps = -(-steps // self.pool_steps)          # ceil division
        return np.tile(raster, (reps, 1))[:steps].copy()


class SpeechWorkload(_PooledWorkload):
    """Spoken digits through the cochlea — the SHD-shaped 700 channels."""

    name = "speech"

    def __init__(self, channels: int = WORKLOAD_CHANNELS["speech"],
                 seed: int = 0, pool_size: int = 4, pool_steps: int = 100,
                 languages: tuple = ("english", "german")):
        super().__init__(channels, seed=seed, pool_size=pool_size,
                         pool_steps=pool_steps)
        self.languages = tuple(languages)

    def _render(self, index, rng):
        from ..data.cochlea import Cochlea, CochleaConfig
        from ..data.speech import synthesize_digit

        language = self.languages[index % len(self.languages)]
        waveform = synthesize_digit(language, index % 10,
                                    rng=rng.child("speaker"))
        cochlea = Cochlea(CochleaConfig(n_channels=self.channels))
        return cochlea.encode(waveform, self.pool_steps,
                              rng=rng.child("cochlea"))


class DVSWorkload(_PooledWorkload):
    """Saccade-driven DVS recordings of glyphs — N-MNIST-shaped events."""

    name = "dvs"

    def __init__(self, channels: int = WORKLOAD_CHANNELS["dvs"],
                 seed: int = 0, pool_size: int = 4, pool_steps: int = 100,
                 sensor_size: int = 34):
        if channels != 2 * sensor_size * sensor_size:
            raise ExperimentError(
                f"dvs workload channels must be 2*{sensor_size}^2 = "
                f"{2 * sensor_size * sensor_size}, got {channels}")
        super().__init__(channels, seed=seed, pool_size=pool_size,
                         pool_steps=pool_steps)
        self.sensor_size = int(sensor_size)

    def _render(self, index, rng):
        from ..data.dvs import record_moving_image
        from ..data.glyphs import render_digit

        image = render_digit(index % 10, size=self.sensor_size - 6,
                             rng=rng.child("glyph"))
        events = record_moving_image(image, self.pool_steps,
                                     sensor_size=self.sensor_size,
                                     rng=rng.child("camera"))
        return events.reshape(self.pool_steps, -1)


class GlyphWorkload(Workload):
    """Poisson rate-coded glyph images (28x28 = 784 channels).

    The image pool is pre-rendered; the rate coding itself is drawn fresh
    per chunk from the caller's rng (rate coding *is* the stochastic
    part, unlike the event-stream workloads above).
    """

    name = "glyph"

    def __init__(self, channels: int = WORKLOAD_CHANNELS["glyph"],
                 seed: int = 0, pool_size: int = 4, max_rate: float = 0.3,
                 size: int = 28):
        if channels != size * size:
            raise ExperimentError(
                f"glyph workload channels must be {size}^2 = {size * size}, "
                f"got {channels}")
        super().__init__(channels)
        self.seed = int(seed)
        self.pool_size = int(pool_size)
        self.max_rate = float(max_rate)
        self.size = int(size)
        self._pool: list[np.ndarray] | None = None

    @property
    def pool(self) -> list[np.ndarray]:
        if self._pool is None:
            from ..data.glyphs import render_digit

            base = RandomState(self.seed)
            self._pool = [
                render_digit(i % 10, size=self.size,
                             rng=base.child(f"glyph-{i}")).ravel()
                for i in range(self.pool_size)
            ]
        return self._pool

    def sample(self, steps, rng=None):
        from ..data.encoders import poisson_encode

        rng = as_random_state(rng)
        image = self.pool[int(rng.integers(self.pool_size))]
        return poisson_encode(image, steps, max_rate=self.max_rate,
                              rng=rng).astype(np.float64)


class WorkloadMix(Workload):
    """Weighted blend of same-width workloads (``"speech+synthetic"``)."""

    def __init__(self, workloads, weights=None):
        workloads = list(workloads)
        if len(workloads) < 2:
            raise ExperimentError("a workload mix needs >= 2 components")
        widths = {w.channels for w in workloads}
        if len(widths) > 1:
            raise ExperimentError(
                f"mixed workloads must share a channel width, got "
                f"{sorted(widths)} — a server has one input layer")
        super().__init__(workloads[0].channels)
        self.workloads = workloads
        weights = ([1.0] * len(workloads) if weights is None
                   else [float(w) for w in weights])
        if len(weights) != len(workloads) or min(weights) <= 0:
            raise ExperimentError("mix weights must be positive, one per "
                                  "component workload")
        total = sum(weights)
        self.weights = [w / total for w in weights]
        self.name = "+".join(w.name for w in workloads)

    def sample(self, steps, rng=None):
        rng = as_random_state(rng)
        draw = float(rng.random())
        cumulative = 0.0
        for workload, weight in zip(self.workloads, self.weights):
            cumulative += weight
            if draw < cumulative:
                return workload.sample(steps, rng)
        return self.workloads[-1].sample(steps, rng)


_FACTORIES = {
    "synthetic": SyntheticWorkload,
    "speech": SpeechWorkload,
    "dvs": DVSWorkload,
    "glyph": GlyphWorkload,
}


def make_workload(spec, channels: int | None = None,
                  seed: int = 0,
                  density: float | None = None) -> Workload:
    """Resolve a workload name (or ``"a+b"`` mix) to an instance.

    ``channels`` overrides the width where the workload supports it
    (synthetic only — the sensor workloads have fixed native widths).
    ``density`` overrides the Bernoulli spike density of synthetic
    components (including inside mixes); sensor workloads ignore it.
    Passing an existing :class:`Workload` returns it unchanged.
    """
    if isinstance(spec, Workload):
        return spec
    if not isinstance(spec, str):
        raise ExperimentError(f"workload spec must be a name or Workload, "
                              f"got {type(spec).__name__}")
    if "+" in spec:
        parts = [p.strip() for p in spec.split("+")]
        if any(not p for p in parts):
            raise ExperimentError(f"malformed workload mix {spec!r}")
        if channels is None:
            # Synthetic components adapt to the fixed-width sensor
            # workloads they are mixed with.
            fixed = [WORKLOAD_CHANNELS[p] for p in parts
                     if p in WORKLOAD_CHANNELS and p != "synthetic"]
            channels = fixed[0] if fixed else None
        return WorkloadMix([make_workload(p, channels=channels, seed=seed,
                                          density=density)
                            for p in parts])
    if spec not in _FACTORIES:
        raise ExperimentError(
            f"unknown workload {spec!r}; known: "
            f"{sorted(_FACTORIES)} or 'a+b' mixes")
    if spec == "synthetic":
        width = WORKLOAD_CHANNELS["synthetic"] if channels is None \
            else channels
        if density is None:
            return SyntheticWorkload(channels=width)
        return SyntheticWorkload(channels=width, density=density)
    if channels is not None and channels != WORKLOAD_CHANNELS[spec]:
        raise ExperimentError(
            f"workload {spec!r} has a fixed native width of "
            f"{WORKLOAD_CHANNELS[spec]} channels, cannot serve {channels}")
    return _FACTORIES[spec](seed=seed)
