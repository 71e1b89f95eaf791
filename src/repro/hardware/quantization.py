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

The one place trained weights become hardware weights is
:meth:`repro.hardware.crossbar.DifferentialCrossbar.effective_weights`:
it programs both arrays through this mapping and the device ladder
(:func:`repro.hardware.devices.quantize_conductances`) and reads them
back.  Because one device of the pair stays at ``g_min``, the realised
grid has ``2*levels - 1`` signed values.  Map-time programming
(:class:`~repro.hardware.mapped_network.HardwareMappedNetwork`) and
hardware-aware training (:class:`repro.core.trainer.TrainerConfig`
``hardware=``) both build crossbars, so they share that grid, noise model
and rng stream layout by construction.

All per-layer scales come from :func:`resolve_weight_scale`:
``max(|w|)`` with a **unit-scale guard for all-zero layers** (a freshly
initialised output layer or a fully pruned layer previously risked a
0/0 -> NaN that silently poisoned the conductances downstream).
"""

from __future__ import annotations

import numpy as np

from .devices import RRAMDeviceConfig

__all__ = [
    "resolve_weight_scale",
    "weights_to_conductances",
]


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
