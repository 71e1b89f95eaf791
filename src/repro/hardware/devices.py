"""RRAM (memristor) device models.

The paper's architecture stores synaptic weights as memristor conductances
in a crossbar (Section I, IV).  This module models the individual cell:

* a conductance range ``[g_min, g_max]`` (the HRS/LRS window),
* discrete programming levels (k-bit quantization, Fig. 8 uses 4/5 bits),
* programming *process variation* — each device's achieved resistance
  deviates from the target by a multiplicative lognormal factor whose
  standard deviation is the "process variation" axis of Fig. 8,
* optional read noise (cycle-to-cycle).

Conductances are stored in siemens; typical windows for HfO2-class devices
are used as defaults (HRS 1 MΩ, LRS 10 kΩ).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.config import BaseConfig
from ..common.rng import RandomState, as_random_state

__all__ = ["RRAMDeviceConfig", "RRAMCellArray", "quantize_conductances",
           "program_conductances"]


@dataclasses.dataclass(frozen=True)
class RRAMDeviceConfig(BaseConfig):
    """Device-level parameters of the memristor cells.

    Attributes
    ----------
    g_min, g_max:
        Conductance window in siemens (defaults: 1 uS - 100 uS, i.e.
        1 MOhm HRS to 10 kOhm LRS).
    levels:
        Number of programmable conductance levels per device (e.g. 16 for
        4-bit, 32 for 5-bit).
    variation:
        Std-dev of the multiplicative lognormal programming error on the
        device *resistance* (the paper's Fig. 8 x-axis, 0 - 0.5).
    read_noise:
        Std-dev of multiplicative Gaussian noise applied per read; 0
        disables.
    stuck_at_rate:
        Probability that a device is a manufacturing fault, stuck at one
        end of the conductance window regardless of programming (split
        evenly between stuck-at-HRS and stuck-at-LRS).  An extension
        beyond the paper's Fig. 8 noise model, for yield studies.
    """

    g_min: float = 1e-6
    g_max: float = 1e-4
    levels: int = 16
    variation: float = 0.0
    read_noise: float = 0.0
    stuck_at_rate: float = 0.0

    def validate(self) -> None:
        self.require_positive("g_min")
        self.require(self.g_max > self.g_min,
                     f"g_max ({self.g_max}) must exceed g_min ({self.g_min})")
        self.require(self.levels >= 2, "need at least 2 conductance levels")
        self.require_non_negative("variation")
        self.require_non_negative("read_noise")
        self.require_in_range("stuck_at_rate", 0.0, 1.0)

    @property
    def level_conductances(self) -> np.ndarray:
        """The ideal programmable conductance ladder (levels,)."""
        return np.linspace(self.g_min, self.g_max, self.levels)


def quantize_conductances(conductances: np.ndarray,
                          config: RRAMDeviceConfig) -> np.ndarray:
    """Snap target conductances to the device's programmable ladder.

    This is **the** k-bit grid of the hardware path:
    :meth:`RRAMCellArray.program` snaps every target with it, and every
    crossbar (:class:`~repro.hardware.crossbar.DifferentialCrossbar`, at
    map time and in hardware-aware training alike) programs through such
    arrays.  The clip makes the one new array; every later step runs in
    place on it.
    """
    cfg = config
    grid = np.clip(conductances, cfg.g_min, cfg.g_max)
    step = (cfg.g_max - cfg.g_min) / (cfg.levels - 1)
    grid -= cfg.g_min
    grid /= step
    np.round(grid, out=grid)     # the level index
    grid *= step
    grid += cfg.g_min
    return grid


def program_conductances(conductances: np.ndarray,
                         config: RRAMDeviceConfig,
                         rng: RandomState | None = None,
                         targets: np.ndarray | None = None) -> np.ndarray:
    """One simulated programming: ladder snap, variation, clip, faults.

    The single source of truth for "what conductances does a programming
    pass actually achieve":

    * the targets snap to the :func:`quantize_conductances` ladder;
    * with ``rng`` and ``config.variation > 0`` the achieved *resistance*
      deviates by a multiplicative lognormal factor (conductance divided
      by it), clipped back into the physical window;
    * with ``rng`` and ``config.stuck_at_rate > 0`` a random subset of
      cells is stuck at one end of the window.

    ``rng=None`` is the noise-free programming — the pure quantization
    grid.  :meth:`RRAMCellArray.program` delegates its math here, so a
    caller passing the array's own rng stream reproduces the array's
    programming bitwise.  ``targets`` short-circuits the snap when the
    caller already computed the programming targets — the array avoids
    running the ladder snap twice.  The caller's arrays are never
    written; the result is a new array, and each step works in place on
    the pass's own temporaries.
    """
    cfg = config
    if targets is not None:
        target = targets
    else:
        target = quantize_conductances(
            np.asarray(conductances, dtype=np.float64), cfg)
    if rng is not None and cfg.variation > 0:
        # The draw's own buffer becomes the result: lognormal factor ->
        # target divided into it -> clipped into it.
        achieved = rng.lognormal(0.0, cfg.variation, target.shape)
        np.divide(target, achieved, out=achieved)
        np.clip(achieved, cfg.g_min, cfg.g_max, out=achieved)
    else:
        achieved = np.clip(target, cfg.g_min, cfg.g_max)
    if rng is not None and cfg.stuck_at_rate > 0:
        faulty = rng.random(target.shape) < cfg.stuck_at_rate
        stuck_low = rng.random(target.shape) < 0.5
        np.copyto(achieved, np.where(stuck_low, cfg.g_min, cfg.g_max),
                  where=faulty)
    return achieved


class RRAMCellArray:
    """An array of memristor cells with programming and read semantics.

    The array is programmed with *target* conductances; the achieved
    conductances include the device-to-device programming variation.  Reads
    return the achieved conductance with optional per-read noise.

    Parameters
    ----------
    shape:
        Array shape, e.g. ``(rows, cols)``.
    config:
        Device parameters.
    rng:
        Randomness for variation and read noise.
    """

    def __init__(self, shape: tuple, config: RRAMDeviceConfig | None = None,
                 rng: RandomState | int | None = None):
        self.shape = tuple(int(s) for s in shape)
        self.config = config or RRAMDeviceConfig()
        self.rng = as_random_state(rng)
        self._target: np.ndarray | None = None
        self._achieved: np.ndarray | None = None
        #: Programming generation, bumped on every :meth:`program` call.
        #: Consumers (e.g. the crossbar's effective-weight cache) compare
        #: it to detect re-programming without holding array copies.
        self.version = 0

    @property
    def is_programmed(self) -> bool:
        return self._achieved is not None

    def quantize_targets(self, conductances: np.ndarray) -> np.ndarray:
        """Snap target conductances to the nearest programmable level
        (delegates to the shared :func:`quantize_conductances` grid)."""
        return quantize_conductances(conductances, self.config)

    def program(self, conductances: np.ndarray) -> np.ndarray:
        """Program the array; returns the *achieved* conductances.

        Process variation is modelled on the resistance: the achieved
        resistance is ``R_target * exp(N(0, sigma))`` with
        ``sigma = variation`` (lognormal, mean-one in log-space), i.e.
        conductance is divided by that factor.  Achieved values are clipped
        to the physical window.  The math is the shared
        :func:`program_conductances`.  The result is a read-only view of
        the array's own achieved conductances.
        """
        conductances = np.asarray(conductances, dtype=np.float64)
        if conductances.shape != self.shape:
            raise ValueError(
                f"expected shape {self.shape}, got {conductances.shape}"
            )
        target = self.quantize_targets(conductances)
        achieved = program_conductances(conductances, self.config,
                                        rng=self.rng, targets=target)
        self._target = target
        self._achieved = achieved
        self.version += 1
        achieved = achieved.view()
        achieved.setflags(write=False)
        return achieved

    def read(self, rng: RandomState | None = None) -> np.ndarray:
        """Read the array conductances (with read noise if configured).

        ``rng`` overrides the array's own stream for this read's noise
        draw — the hook behind *per-session read realizations*: a serving
        stream that pins its read-noise rng sees one reproducible noisy
        read, independent of how many reads other consumers have drawn
        from the array's stream in the meantime.
        """
        if self._achieved is None:
            raise ValueError("array read before programming")
        cfg = self.config
        values = self._achieved
        if cfg.read_noise > 0:
            source = self.rng if rng is None else rng
            values = values * (
                1.0 + source.normal(0.0, cfg.read_noise, self.shape)
            )
            values = np.clip(values, cfg.g_min, cfg.g_max)
        return values

    def programming_error(self) -> np.ndarray:
        """Relative conductance error |achieved - target| / target."""
        if self._achieved is None or self._target is None:
            raise ValueError("array not programmed")
        return np.abs(self._achieved - self._target) / self._target

    def __repr__(self) -> str:
        state = "programmed" if self.is_programmed else "blank"
        return (f"RRAMCellArray(shape={self.shape}, levels="
                f"{self.config.levels}, variation={self.config.variation}, "
                f"{state})")
