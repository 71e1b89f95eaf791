"""Data-driven weight-scale calibration ("don't start silent, don't start
saturated").

Surrogate-gradient BPTT only learns when membrane values visit the
neighbourhood of the threshold: a layer that never spikes passes no error
to the layers above it (its PSPs are zero), and a layer that spikes every
step carries no information.  The paper does not state its initialisation;
any working reproduction needs the hidden layers to start at a moderate
firing rate.

:func:`calibrate_firing` fixes this generically: layer by layer, it scales
the weight matrix (a single scalar per layer, found by bisection on the
log-scale) until the layer's mean firing rate on a calibration batch hits a
target.  This is the spiking analogue of LSUV initialisation and is
deterministic given the batch.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ShapeError
from .network import SpikingNetwork

__all__ = ["calibrate_firing", "layer_firing_rates"]


def layer_firing_rates(network: SpikingNetwork, inputs: np.ndarray) -> list[float]:
    """Mean spike probability per layer on ``inputs`` (batch, T, n_in)."""
    _, record = network.run(inputs, record=True)
    return [float(np.mean(layer.spikes)) for layer in record.layers]


def calibrate_firing(network: SpikingNetwork, inputs: np.ndarray,
                     target_rate: float = 0.08, tolerance: float = 0.02,
                     max_iterations: int = 24,
                     scale_bounds: tuple[float, float] = (1e-3, 1e4)) -> list[float]:
    """Scale each layer's weights so its mean firing rate ≈ ``target_rate``.

    Layers are calibrated front to back (each layer sees the spikes of the
    already-calibrated layers below it).  The search is bisection on
    ``log(scale)``: firing rate is monotone non-decreasing in the weight
    scale for non-negative-mean drive, and in practice monotone enough for
    bisection even with signed weights.

    Parameters
    ----------
    network:
        Modified in place (weights multiplied by the found scales).
    inputs:
        Calibration batch, shape (batch, T, n_input).  A few dozen samples
        suffice.
    target_rate:
        Desired mean spike probability per neuron per step.
    tolerance:
        Stop early when ``|rate - target| <= tolerance``.
    max_iterations:
        Bisection steps per layer.
    scale_bounds:
        Search interval for the multiplicative scale.

    Returns
    -------
    list[float]
        The applied per-layer scales.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ShapeError(f"calibration inputs must be (batch, T, n), "
                         f"got {inputs.shape}")
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target_rate must be in (0, 1), got {target_rate}")

    scales: list[float] = []
    layer_input = inputs
    for layer in network.layers:
        base_weight = layer.weight.copy()
        alone = SpikingNetwork.from_layers([layer])   # reads layer.weight

        def rate_at(scale: float) -> float:
            layer.weight = base_weight * scale
            spikes, _ = alone.run(layer_input)
            return float(np.mean(spikes))

        lo, hi = scale_bounds
        # Ensure the bracket actually straddles the target.
        rate_lo, rate_hi = rate_at(lo), rate_at(hi)
        if rate_hi <= target_rate:
            chosen = hi
        elif rate_lo >= target_rate:
            chosen = lo
        else:
            chosen = 1.0
            for _ in range(max_iterations):
                mid = float(np.sqrt(lo * hi))  # bisection in log-space
                rate_mid = rate_at(mid)
                chosen = mid
                if abs(rate_mid - target_rate) <= tolerance:
                    break
                if rate_mid < target_rate:
                    lo = mid
                else:
                    hi = mid
        layer.weight = base_weight * chosen
        scales.append(float(chosen))
        layer_input, _ = alone.run(layer_input)
    return scales
