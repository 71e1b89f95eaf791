"""Weight quantization and weight-to-conductance mapping.

Trained weights are signed reals; memristor conductances are positive and
bounded.  Following standard crossbar practice (and the paper's Fig. 8
levels), a weight ``w`` maps to a *differential pair* of conductances:

.. math::

    w \\propto g^+ - g^-

with one device per sign: positive weights program ``g+`` above the
midpoint and ``g-`` at minimum, negative weights the mirror.  Each layer
uses a single scale factor chosen so the largest |weight| uses the full
conductance window — that scale is divided back out after the analog dot
product, so quantization error (not gain) is the only distortion.

Two software shortcuts exist, on **different grids**:

* ``quantize_weights`` — the legacy coarse sweep shortcut: a symmetric
  signed grid with ``levels - 1`` steps across ``[-scale, +scale]``
  (``levels`` distinct values).  Kept for quick sweeps and backwards
  compatibility; it is *coarser* than what the differential pair
  realises.
* ``fake_quantize`` — the authoritative map-time grid: weights go through
  the actual conductance mapping and the actual device ladder snap
  (:func:`repro.hardware.devices.quantize_conductances`, the same
  function :class:`~repro.hardware.devices.RRAMCellArray` programs with),
  then back to weights.  Because one device of the pair stays at
  ``g_min``, the realised grid has ``2*levels - 1`` signed values.  This
  is the grid hardware-aware training quantizes with, and it is
  bitwise-identical to a noise-free crossbar mapping by construction
  (pinned in ``tests/unit/test_hw_training.py``).

``sample_programmed_weights`` adds one programming-variation draw on top
of ``fake_quantize`` — the per-step device-noise injection of
hardware-aware training (:class:`repro.core.trainer.TrainerConfig`
``hardware=``), sharing the noise model of
:func:`repro.hardware.devices.program_conductances`.

All per-layer scales come from :func:`resolve_weight_scale`:
``max(|w|)`` with a **unit-scale guard for all-zero layers** (a freshly
initialised output layer or a fully pruned layer previously risked a
0/0 -> NaN that silently poisoned the conductances downstream).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.config import BaseConfig
from ..common.rng import RandomState, as_random_state
from .devices import RRAMDeviceConfig, program_conductances

__all__ = [
    "QuantizationConfig",
    "resolve_weight_scale",
    "quantize_weights",
    "fake_quantize",
    "sample_programmed_weights",
    "weights_to_conductances",
    "conductances_to_weights",
]


@dataclasses.dataclass(frozen=True)
class QuantizationConfig(BaseConfig):
    """k-bit weight quantization parameters.

    Attributes
    ----------
    bits:
        Bits per device (Fig. 8: 4 or 5), i.e. ``2**bits`` levels.
    symmetric:
        Use a symmetric grid around zero (required by the differential
        mapping).
    """

    bits: int = 4
    symmetric: bool = True

    def validate(self) -> None:
        self.require(1 <= self.bits <= 16, f"bits must be 1-16, got {self.bits}")

    @property
    def levels(self) -> int:
        return 2 ** self.bits


def resolve_weight_scale(weights: np.ndarray,
                         scale: float | None = None) -> float:
    """The per-tensor full-scale value: ``scale`` or ``max(|weights|)``.

    An all-zero layer (freshly initialised output layer, pruned layer)
    yields a **unit scale** instead of 0: zero weights are realised
    exactly at any scale, and dividing by the naive ``max(|w|) = 0``
    previously produced NaNs that propagated silently into the
    conductances.  Every scale derivation in this module (and therefore
    every crossbar programming) goes through this guard.
    """
    weights = np.asarray(weights)
    if scale is None:
        scale = float(np.max(np.abs(weights))) if weights.size else 0.0
    scale = float(scale)
    if scale == 0.0:
        return 1.0
    return scale


def quantize_weights(weights: np.ndarray, config: QuantizationConfig,
                     scale: float | None = None) -> np.ndarray:
    """Round ``weights`` to a coarse symmetric k-bit grid (legacy shortcut).

    The grid has ``levels - 1`` steps across ``[-scale, +scale]`` —
    *coarser* than the grid the differential conductance pair realises
    (use :func:`fake_quantize` for that one).  Kept for quick software
    sweeps.

    Parameters
    ----------
    scale:
        Full-scale value; defaults to ``max(|weights|)`` (per-tensor),
        with a unit-scale guard for all-zero layers
        (:func:`resolve_weight_scale`).
    """
    weights = np.asarray(weights, dtype=np.float64)
    scale = resolve_weight_scale(weights, scale)
    # Symmetric signed grid with (levels - 1) steps across [-scale, +scale].
    steps = config.levels - 1
    normalized = np.clip(weights / scale, -1.0, 1.0)
    quantized = np.round(normalized * steps / 2.0) * 2.0 / steps
    return quantized * scale


def fake_quantize(weights: np.ndarray, device: RRAMDeviceConfig,
                  scale: float | None = None) -> np.ndarray:
    """Round ``weights`` to exactly the grid a noise-free crossbar realises.

    The weights run through the *actual map-time pipeline* — differential
    conductance targets (:func:`weights_to_conductances`), the device
    ladder snap + window clip
    (:func:`~repro.hardware.devices.program_conductances` with no rng),
    and the inverse mapping (:func:`conductances_to_weights`) — so the
    train-time and map-time grids are identical by construction, not by a
    re-derived formula.  ``fake_quantize(w, device)`` is bitwise-equal to
    ``DifferentialCrossbar(w, device).effective_weights()`` when the
    device has ``variation == read_noise == stuck_at_rate == 0``.

    This is the forward-pass weight transform of hardware-aware training
    (the straight-through estimator treats it as the identity on the
    backward pass).
    """
    g_plus, g_minus, scale = weights_to_conductances(weights, device,
                                                     scale=scale)
    a_plus = program_conductances(g_plus, device)
    a_minus = program_conductances(g_minus, device)
    return conductances_to_weights(a_plus, a_minus, device, scale)


def sample_programmed_weights(weights: np.ndarray,
                              device: RRAMDeviceConfig,
                              rng: RandomState | int | None,
                              scale: float | None = None) -> np.ndarray:
    """One stochastic programming-and-read draw of ``weights`` onto a
    crossbar.

    Quantizes to the :func:`fake_quantize` grid and applies one
    programming-variation (and stuck-at, if configured) realization via
    the shared device noise model
    (:func:`~repro.hardware.devices.program_conductances`), followed by
    one per-read noise draw when ``device.read_noise > 0`` (the
    :meth:`~repro.hardware.devices.RRAMCellArray.read` model).  The
    stream layout matches
    :class:`~repro.hardware.crossbar.DifferentialCrossbar` — the
    positive array draws from ``rng.child("plus")``, the negative from
    ``rng.child("minus")``, programming before read within each stream —
    so with the same root rng this returns bitwise the effective weights
    the crossbar would realise on its first programming (and first read,
    under read noise).

    Hardware-aware training calls this once per optimizer step (fresh
    ``rng`` child each time) to expose the network to the distribution of
    crossbars — and reads — it might be served from.
    """
    root = as_random_state(rng)
    g_plus, g_minus, scale = weights_to_conductances(weights, device,
                                                     scale=scale)
    plus_rng = root.child("plus")
    minus_rng = root.child("minus")
    a_plus = program_conductances(g_plus, device, rng=plus_rng)
    a_minus = program_conductances(g_minus, device, rng=minus_rng)
    if device.read_noise > 0:
        # Same math (and same continued streams) as RRAMCellArray.read.
        a_plus = np.clip(
            a_plus * (1.0 + plus_rng.normal(0.0, device.read_noise,
                                            a_plus.shape)),
            device.g_min, device.g_max)
        a_minus = np.clip(
            a_minus * (1.0 + minus_rng.normal(0.0, device.read_noise,
                                              a_minus.shape)),
            device.g_min, device.g_max)
    return conductances_to_weights(a_plus, a_minus, device, scale)


def weights_to_conductances(weights: np.ndarray,
                            device: RRAMDeviceConfig,
                            scale: float | None = None
                            ) -> tuple[np.ndarray, np.ndarray, float]:
    """Map signed weights to differential conductance targets.

    Returns ``(g_plus, g_minus, weight_scale)`` where the realised weight is
    ``(g_plus - g_minus) * weight_scale / (g_max - g_min)``; both arrays lie
    in the device window and the mapping uses the full dynamic range for
    the largest |weight|.  An all-zero layer maps to ``(g_min, g_min)``
    pairs under a unit scale (:func:`resolve_weight_scale`).
    """
    weights = np.asarray(weights, dtype=np.float64)
    scale = resolve_weight_scale(weights, scale)
    window = device.g_max - device.g_min
    normalized = weights / scale
    np.clip(normalized, -1.0, 1.0, out=normalized)
    # g+ = g_min + max(w, 0)*window and g- = g_min - min(w, 0)*window are
    # g_min + |w|*window on their own sign and g_min elsewhere, bitwise;
    # fmax/fmin send a NaN to 0 (g_min on both devices) and, unlike a
    # select on the weights' random signs, never branch.
    g_plus = np.fmax(normalized, 0.0)
    g_plus *= window
    g_plus += device.g_min
    g_minus = np.fmin(normalized, 0.0, out=normalized)
    g_minus *= window
    np.subtract(device.g_min, g_minus, out=g_minus)
    return g_plus, g_minus, float(scale)


def conductances_to_weights(g_plus: np.ndarray, g_minus: np.ndarray,
                            device: RRAMDeviceConfig,
                            weight_scale: float) -> np.ndarray:
    """Invert :func:`weights_to_conductances` for achieved conductances."""
    window = device.g_max - device.g_min
    return (np.asarray(g_plus, dtype=np.float64)
            - np.asarray(g_minus, dtype=np.float64)) * weight_scale / window
