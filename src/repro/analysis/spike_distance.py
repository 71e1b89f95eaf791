"""Spike-train distances and similarity measures.

The paper's pattern-association task (Section V-B) is evaluated with the
kernelised distance of eq. 15 (a van Rossum-style metric).  This module
provides that distance as a standalone function plus two classical
alternatives (Victor-Purpura and the coincidence factor) used in the
analysis benches to confirm the association results are metric-independent.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ShapeError
from ..core.filters import DoubleExponentialKernel, decay_from_tau, exp_scan

__all__ = [
    "van_rossum_distance",
    "victor_purpura_distance",
    "coincidence_factor",
    "trace_correlation",
    "pairwise_van_rossum",
]


def _as_time_major(spikes: np.ndarray) -> np.ndarray:
    data = np.asarray(spikes, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ShapeError(f"expected (T,) or (T, trains), got {data.shape}")
    return data


def van_rossum_distance(a: np.ndarray, b: np.ndarray,
                        tau_m: float = 4.0, tau_s: float = 1.0) -> float:
    """Paper eq. 15 distance between spike arrays of shape (T,) or (T, trains).

    ``D = 1/(2T) * sum_t (f*a - f*b)^2`` summed over trains.
    """
    a = _as_time_major(a)
    b = _as_time_major(b)
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    kernel = DoubleExponentialKernel(tau_m=tau_m, tau_s=tau_s)
    diff = kernel.convolve(a - b, time_axis=0)
    return float(np.sum(diff ** 2) / (2.0 * a.shape[0]))


def _spike_times(train: np.ndarray) -> np.ndarray:
    train = np.asarray(train)
    if train.ndim != 1:
        raise ShapeError(f"expected a single train (T,), got {train.shape}")
    return np.flatnonzero(train > 0).astype(np.float64)


def victor_purpura_distance(a: np.ndarray, b: np.ndarray,
                            cost: float = 0.5) -> float:
    """Victor-Purpura spike-time edit distance between two binary trains.

    Operations: insert/delete a spike (cost 1) or shift a spike by ``dt``
    (cost ``cost * |dt|``).  Computed by the classic O(n*m) dynamic program.
    """
    if cost < 0:
        raise ValueError(f"cost must be non-negative, got {cost}")
    times_a = _spike_times(a)
    times_b = _spike_times(b)
    n, m = len(times_a), len(times_b)
    if n == 0 or m == 0:
        return float(n + m)
    previous = np.arange(m + 1, dtype=np.float64)
    for i in range(1, n + 1):
        current = np.empty(m + 1)
        current[0] = i
        for j in range(1, m + 1):
            shift = previous[j - 1] + cost * abs(times_a[i - 1] - times_b[j - 1])
            current[j] = min(previous[j] + 1.0, current[j - 1] + 1.0, shift)
        previous = current
    return float(previous[m])


def coincidence_factor(a: np.ndarray, b: np.ndarray, window: int = 2) -> float:
    """Kistler coincidence factor Γ in [-1, 1] between two binary trains.

    Counts spikes of ``a`` landing within ``±window`` steps of a spike of
    ``b``, normalised by the expected chance coincidences of a Poisson
    train with ``b``'s rate.  Γ = 1 for identical trains, ≈ 0 for unrelated
    ones.
    """
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"expected equal-length 1-D trains, "
                         f"got {a.shape} and {b.shape}")
    steps = a.shape[0]
    times_a = np.flatnonzero(a > 0)
    times_b = np.flatnonzero(b > 0)
    n_a, n_b = len(times_a), len(times_b)
    if n_a == 0 and n_b == 0:
        return 1.0
    if n_a == 0 or n_b == 0:
        return 0.0
    coincidences = sum(
        1 for t in times_a if np.any(np.abs(times_b - t) <= window)
    )
    rate_b = n_b / steps
    expected = 2.0 * window * rate_b * n_a
    norm = 1.0 - 2.0 * rate_b * window
    denominator = 0.5 * (n_a + n_b) * norm
    if denominator <= 0:
        return 0.0
    return float((coincidences - expected) / denominator)


def trace_correlation(a: np.ndarray, b: np.ndarray,
                      tau: float = 4.0) -> float:
    """Pearson correlation of exponentially smoothed traces.

    Robust similarity for whole rasters: both arrays (T, trains) are
    filtered with an exponential kernel and correlated as flat vectors.
    Returns 0 when either trace is silent/constant.
    """
    a = _as_time_major(a)
    b = _as_time_major(b)
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    alpha = decay_from_tau(tau)
    ta = exp_scan(a[None], alpha).ravel()
    tb = exp_scan(b[None], alpha).ravel()
    sa, sb = ta.std(), tb.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.corrcoef(ta, tb)[0, 1])


def pairwise_van_rossum(rasters: np.ndarray, tau_m: float = 4.0,
                        tau_s: float = 1.0) -> np.ndarray:
    """Symmetric distance matrix for a batch of rasters (N, T, trains)."""
    rasters = np.asarray(rasters, dtype=np.float64)
    if rasters.ndim != 3:
        raise ShapeError(f"expected (N, T, trains), got {rasters.shape}")
    kernel = DoubleExponentialKernel(tau_m=tau_m, tau_s=tau_s)
    traces = kernel.convolve(rasters, time_axis=1)
    n = rasters.shape[0]
    steps = rasters.shape[1]
    matrix = np.zeros((n, n))
    for i in range(n):
        diff = traces[i][None, :, :] - traces[i + 1:]
        if diff.size:
            matrix[i, i + 1:] = np.sum(diff ** 2, axis=(1, 2)) / (2.0 * steps)
    return matrix + matrix.T
