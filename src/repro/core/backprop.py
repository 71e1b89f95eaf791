"""Backpropagation through time for the filter-based spiking network.

This module states the paper's training algorithm (Section III);
:func:`repro.core.engine.fused_backward` computes it.  The network
equations (6)-(11) are unrolled in time (Fig. 2) and differentiated with
the Heaviside replaced by the erfc pseudo-gradient (eq. 14).  Per
adaptive layer and step: ``k[t] = alpha*k[t-1] + x[t]`` (eq. 9),
``g[t] = k[t] @ W.T`` (eq. 7), ``h[t] = beta*h[t-1] + O[t-1]`` (eq. 8),
``v[t] = g[t] - theta*h[t]`` (eq. 6), ``O[t] = U(v[t] - v_th)``.

Two gradient modes are provided:

* ``exact`` (default) — the full adjoint recursion.  The paper's eq. (13)
  compresses the derivation; writing out every dependency of the unrolled
  graph adds two filter-state adjoints:

  - synapse-filter adjoint ``a_k[t] = W^T dE/dv[t] + alpha * a_k[t+1]``
    (the error reaching filter state ``k[t]`` also flows *through the
    filter's own recursion* into ``k[t+1]``),
  - reset-filter adjoint ``a_h[t] = -theta * dE/dv[t] + beta * a_h[t+1]``.

  The spike adjoint is then
  ``dE/dO_l[t] = (loss term) + a_k^{l+1}[t] + a_h^l[t+1]``.

* ``truncated`` — the two-term form as literally printed in eq. (13):
  the cross-layer term ``W^T(eps*delta)`` without the alpha-carry, and the
  one-step reset term ``-theta * delta[t+1]*eps[t+1]`` without the
  beta-carry — the exact recursion of the graph whose ``k`` and ``h``
  carries are detached.  This is cheaper but biased; the ablation bench
  (``bench_ablation_gradient``) compares the two.

Hard-reset layers (eq. 1) treat the reset gate ``(1 - O[t])`` as a
constant, in either mode.  Both modes are verified against the one
reference oracle, the autograd tape (:mod:`repro.autograd`), which
derives the same gradients mechanically and is itself checked against
central finite differences.
"""

from __future__ import annotations

import numpy as np

from .engine import fused_backward
from .network import RunRecord, SpikingNetwork

__all__ = ["backward", "GradientResult"]


class GradientResult:
    """Output of :func:`backward`.

    Attributes
    ----------
    weight_grads:
        Per-layer ``dE/dW`` arrays matching ``network.weights`` shapes.
    input_grad:
        ``dE/d(input spikes)``, shape (batch, T, n_input).  Useful for
        sensitivity analysis and tests.  The fused engine materialises it
        lazily on first access — training only consumes ``weight_grads``,
        and the first layer's input gradient costs a full dense matmul.
    """

    def __init__(self, weight_grads: list[np.ndarray], input_grad: np.ndarray,
                 input_grad_fn=None):
        self.weight_grads = weight_grads
        self._input_grad = input_grad
        self._input_grad_fn = input_grad_fn

    @property
    def input_grad(self) -> np.ndarray:
        if self._input_grad is None and self._input_grad_fn is not None:
            self._input_grad = self._input_grad_fn()
            self._input_grad_fn = None
        return self._input_grad


def backward(network: SpikingNetwork, record: RunRecord,
             grad_outputs: np.ndarray, mode: str = "exact",
             precision: str | None = None,
             need_input_grad: bool = True,
             weights=None) -> GradientResult:
    """BPTT through a recorded forward run.

    Parameters
    ----------
    network:
        The network that produced ``record`` (weights must be unchanged
        since the forward pass).
    record:
        A :class:`~repro.core.network.RunRecord` from
        ``network.run(..., record=True)``.
    grad_outputs:
        ``dE/dO_L``, the loss gradient with respect to the last layer's
        output spikes, shape (batch, T, n_out).
    mode:
        ``"exact"`` or ``"truncated"`` (see module docstring).
    precision:
        ``"float32"`` or ``"float64"`` (defaults to the record's dtype).
    need_input_grad:
        ``False`` skips building the deferred ``input_grad`` closure
        entirely (training only reads ``weight_grads``); ``input_grad`` is
        then ``None``.
    weights:
        Optional per-layer weight overrides — the same list the forward
        pass ran with (``network.run(..., weights=...)``), so the adjoint
        matmuls traverse the weights that actually produced ``record``.
        The returned ``weight_grads`` are gradients with respect to the
        override values; hardware-aware training's straight-through
        estimator applies them to the master weights unchanged.

    Returns
    -------
    GradientResult
        Weight gradients (summed over the batch — divide by batch size in
        the loss if a mean is wanted) and the input-spike gradient.
    """
    return fused_backward(network, record, grad_outputs, mode=mode,
                          precision=precision, need_input_grad=need_input_grad,
                          weights=weights)
