"""First-order exponential filters — the paper's eq. (5) building blocks.

The paper's central modelling move (Section II) is to express a spiking
neuron as a bank of first-order low-pass filters: a *synapse* filter
``k(t)`` shapes input spikes into post-synaptic potentials, and a *reset*
filter ``h(t)`` shapes output spikes into an adaptive threshold.  In
discrete time (eq. 5):

.. math::

    k[t] = e^{-1/\\tau}   k[t-1] + x[t]        \\qquad (5a)

    h[t] = e^{-1/\\tau_r} h[t-1] + O[t-1]      \\qquad (5b)

This module holds the one pair of scans that evaluates that primitive
everywhere: the in-place causal scan :func:`_scan` and its adjoint
:func:`_scan_reverse` over time-major ``(T, ...)`` buffers (the fused
engine, :mod:`repro.core.engine`, runs them for the synapse filter and its
BPTT adjoint), their batch-major wrappers :func:`exp_scan` and
:func:`exp_scan_adjoint`, and the double-exponential kernel
``f[t] = e^{-t/\\tau_m} - e^{-t/\\tau_s}`` of the van Rossum loss (eq. 15),
computed with the same scans.  The reference oracle for whole networks,
the autograd tape (:func:`repro.autograd.reference.unroll`), states the
recurrences again one step at a time; nothing else does.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "decay_from_tau",
    "exp_scan",
    "exp_scan_adjoint",
    "DoubleExponentialKernel",
]


def decay_from_tau(tau: float) -> float:
    """Per-step decay factor ``alpha = exp(-1/tau)`` for time constant ``tau``.

    ``tau`` is expressed in simulation steps (the paper uses tau = 4 steps,
    i.e. alpha ~= 0.7788).
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return float(np.exp(-1.0 / tau))


def _scan(buf: np.ndarray, decay: float,
          carry: np.ndarray | None = None) -> np.ndarray:
    """In-place causal scan ``y[t] = decay*y[t-1] + x[t]`` along axis 0 of
    a time-major buffer: two elementwise ops on one slice per step (a
    contiguous ``(batch, n)`` slice of an engine buffer).  ``carry``
    seeds the step before ``buf[0]`` (see :func:`exp_scan`)."""
    scratch = np.empty(buf.shape[1:], dtype=buf.dtype)  # (batch, n)
    if carry is not None and len(buf):
        np.multiply(carry, decay, out=scratch)
        buf[0] += scratch
    for t in range(1, len(buf)):
        np.multiply(buf[t - 1], decay, out=scratch)
        buf[t] += scratch
    return buf


def _scan_reverse(buf: np.ndarray, decay: float) -> np.ndarray:
    """In-place anti-causal scan ``a[t] = x[t] + decay*a[t+1]`` along
    axis 0 of a time-major buffer — the adjoint of :func:`_scan`."""
    scratch = np.empty(buf.shape[1:], dtype=buf.dtype)  # (batch, n)
    for t in range(len(buf) - 2, -1, -1):
        np.multiply(buf[t + 1], decay, out=scratch)
        buf[t] += scratch
    return buf


def exp_scan(xs: np.ndarray, decay: float, out: np.ndarray | None = None,
             carry: np.ndarray | None = None) -> np.ndarray:
    """Causal first-order scan ``y[t] = decay*y[t-1] + x[t]`` along axis 1.

    ``xs`` has shape ``(batch, T, n)``; the engine's time-major kernel
    (:func:`_scan`) runs over a ``swapaxes`` view of ``out`` (allocated
    when omitted; it may alias ``xs``), so the values are bitwise those
    of the engine's own scans.

    ``carry`` is the scan value *preceding* ``xs[:, 0]`` — the final
    scanned value of the previous chunk of a split sequence.  With it the
    first step performs exactly the same two ops as every interior step
    (``y[0] = decay*carry + x[0]``), so scanning a sequence in chunks and
    threading the carry is bitwise-equal to one continuous scan.  ``None``
    (the default) starts from ``y[0] = x[0]``.
    """
    xs = np.asarray(xs)
    if out is None:
        out = np.empty_like(xs)
    if out is not xs:
        np.copyto(out, xs)
    _scan(out.swapaxes(0, 1), decay, carry)
    return out


def exp_scan_adjoint(grads: np.ndarray, decay: float) -> np.ndarray:
    """Adjoint of :func:`exp_scan`: the anti-causal scan
    ``a[t] = decay*a[t+1] + g[t]`` along axis 1 of a ``(batch, T, n)``
    array, i.e. ``dE/dx[t] = sum_{s>=t} decay**(s-t) * dE/dy[s]``.

    Returns a new array; the kernel is the engine's :func:`_scan_reverse`.
    """
    out = np.array(grads)
    _scan_reverse(out.swapaxes(0, 1), decay)
    return out


def _time_major(xs: np.ndarray, time_axis: int) -> np.ndarray:
    """A float64 copy of ``xs`` with time moved to axis 0, for the
    in-place scans."""
    return np.moveaxis(np.array(xs, dtype=np.float64), time_axis, 0)


class DoubleExponentialKernel:
    """The loss kernel ``f[t] = e^{-t/tau_m} - e^{-t/tau_s}`` of eq. (15).

    With ``tau_m > tau_s`` this is a causal alpha-like kernel rising from 0
    to a peak and decaying back — the paper uses ``tau_m = 4``,
    ``tau_s = 1`` (Table I).  The convolution ``f * S`` of a spike train is
    computed as the difference of two exponential scans, which is exact and
    O(T).
    """

    def __init__(self, tau_m: float = 4.0, tau_s: float = 1.0):
        if tau_m <= tau_s:
            raise ValueError(
                f"tau_m must exceed tau_s for a biphasic kernel, "
                f"got tau_m={tau_m}, tau_s={tau_s}"
            )
        self.tau_m = float(tau_m)
        self.tau_s = float(tau_s)
        self.alpha_m = decay_from_tau(tau_m)
        self.alpha_s = decay_from_tau(tau_s)

    def kernel(self, length: int) -> np.ndarray:
        """First ``length`` samples of ``f[t]`` (``f[0] == 0``)."""
        t = np.arange(length, dtype=np.float64)
        return np.exp(-t / self.tau_m) - np.exp(-t / self.tau_s)

    def convolve(self, spikes: np.ndarray, time_axis: int = 0) -> np.ndarray:
        """Causal convolution ``(f * S)[t]`` along ``time_axis`` (exact, O(T))."""
        fast = _scan(_time_major(spikes, time_axis), self.alpha_s)
        slow = _scan(_time_major(spikes, time_axis), self.alpha_m)
        return np.moveaxis(slow - fast, 0, time_axis)

    def adjoint_convolve(self, grad: np.ndarray, time_axis: int = 0) -> np.ndarray:
        """Adjoint of :meth:`convolve` (correlation with ``f``, reverse time)."""
        fast = _scan_reverse(_time_major(grad, time_axis), self.alpha_s)
        slow = _scan_reverse(_time_major(grad, time_axis), self.alpha_m)
        return np.moveaxis(slow - fast, 0, time_axis)

    def __repr__(self) -> str:
        return f"DoubleExponentialKernel(tau_m={self.tau_m}, tau_s={self.tau_s})"
