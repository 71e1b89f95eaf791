"""The tape's unroll of a :class:`~repro.core.network.SpikingNetwork`: the
repository's one reference oracle.

:func:`unroll` rebuilds the forward pass one time step and one layer at
a time (the literal Fig. 2 unfolding) and :meth:`Unroll.backward`
differentiates it mechanically; the fused engine and its hand-derived
BPTT (:mod:`repro.core.backprop`, whose docstring states the equations)
are tested against it, and ``SpikingNetwork.run(engine="step")`` /
``shard_grads(engine="step")`` run it.  Every neuron kind runs with its
own parameters (a hard-reset neuron's ``alpha`` and ``input_gain``; its
reset gate is a constant of the graph).  ``mode="truncated"`` is the
adaptive unroll with the carries of the synapse filter ``k`` and the
reset filter ``h`` detached.  The spike is a Heaviside forward with the
layer's surrogate backward (eq. 14); ``smooth=True`` uses the
surrogate's ``smooth_step`` in the forward too, which makes the graph
differentiable so the tape itself can be checked against finite
differences.  The float64 weight leaves are ``Tensor(weight.T)`` views,
so each product is the same BLAS call as ``k @ layer.weight.T``.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ShapeError, StateError
from .ops import _make, add, matmul, mul, scale, smooth_spike, spike, sub
from .tensor import Tensor

__all__ = ["Unroll", "unroll"]


class Unroll:
    """A network unrolled on the tape over one input batch.

    Attributes
    ----------
    weights:
        One leaf per layer, ``(n_in, n_out)`` — the transpose of the
        layer's ``(n_out, n_in)`` weight; ``.grad`` after :meth:`backward`.
    inputs:
        One leaf per step, the ``(batch, n_input)`` input spikes.
    outputs, membranes, traces:
        Per layer, per step: output spikes ``O``, membrane ``v`` (pre-reset
        for hard-reset layers) and synapse-filter state ``k`` (``None`` for
        hard-reset layers).
    state:
        Per layer, the final carried state: ``{"k", "h", "o"}`` for
        adaptive layers, ``{"v"}`` (post-reset) for hard-reset ones.
    """

    def __init__(self, weights, inputs, dtype, sizes, batch):
        self.weights = weights
        self.inputs = inputs
        self.dtype = dtype
        self.sizes = sizes
        self.batch = batch
        self.outputs = [[] for _ in weights]
        self.membranes = [[] for _ in weights]
        self.traces = [[] for _ in weights]
        self.state = [{} for _ in weights]
        self._spent = False

    def _stack(self, arrays, width: int) -> np.ndarray:
        """Per-step ``(batch, width)`` arrays as one ``(batch, T, width)``."""
        if not arrays:
            return np.zeros((self.batch, 0, width), self.dtype)
        return np.stack(arrays, axis=1)

    def spikes(self, index: int = -1) -> np.ndarray:
        """Layer ``index``'s output spikes, ``(batch, T, n_out)``."""
        return self._stack([out.data for out in self.outputs[index]],
                           self.sizes[1:][index])

    def v(self, index: int) -> np.ndarray:
        """Layer ``index``'s membrane values, ``(batch, T, n_out)``."""
        return self._stack([v.data for v in self.membranes[index]],
                           self.sizes[1:][index])

    def k(self, index: int) -> np.ndarray | None:
        """Layer ``index``'s synapse-filter trace, ``(batch, T, n_in)``, or
        ``None`` for a hard-reset layer."""
        if any(k is None for k in self.traces[index]):
            return None
        return self._stack([k.data for k in self.traces[index]],
                           self.sizes[index])

    def backward(self, grad_outputs: np.ndarray):
        """Seed the tape with ``dE/dO_L`` and run it once.

        The root is ``sum_t sum(O_L[t] * grad_outputs[:, t])``, so any
        loss's numpy gradient drives the same adjoints as the loss built
        on the tape.  Returns a :class:`~repro.core.backprop.GradientResult`
        (weight gradients in the layers' ``(n_out, n_in)`` layout).
        """
        from ..core.backprop import GradientResult

        if self._spent:
            raise StateError("this unroll was already differentiated")
        self._spent = True
        outputs = self.outputs[-1]
        grad_outputs = np.asarray(grad_outputs, dtype=self.dtype)
        expected = (self.batch, len(outputs), self.sizes[-1])
        if grad_outputs.shape != expected:
            raise ShapeError(f"grad_outputs shape {grad_outputs.shape} != "
                             f"outputs {expected}")

        def seed(grad):
            for t, out in enumerate(outputs):
                out._accumulate(grad * grad_outputs[:, t])

        value = sum(float(np.vdot(out.data, grad_outputs[:, t]))
                    for t, out in enumerate(outputs))
        _make(value, tuple(outputs), seed).backward()

        def grad(leaf):
            return np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad

        return GradientResult(
            weight_grads=[np.ascontiguousarray(grad(w).T)
                          for w in self.weights],
            input_grad=self._stack([grad(x) for x in self.inputs],
                                   self.sizes[0]))


def unroll(network, inputs: np.ndarray, weights=None, precision=None,
           mode: str = "exact", smooth: bool = False) -> Unroll:
    """Unroll ``network`` over ``inputs`` ``(batch, T, n_input)`` on the tape.

    ``weights`` optionally substitutes one ``(n_out, n_in)`` array per
    layer (``None`` entries keep the layer's own); ``precision``
    (``"float32"``/``"float64"``, default float64) sets the dtype of every
    tensor; ``mode`` is ``"exact"`` or ``"truncated"`` (see the module
    docstring); ``smooth`` relaxes the spike forward.  The network's own
    parameters and state are not touched.
    """
    from ..core.engine import (_per_layer_weights, _resolve_weight_override,
                               resolve_precision)

    if mode not in ("exact", "truncated"):
        raise ValueError(f"mode must be 'exact' or 'truncated', got {mode!r}")
    dtype = resolve_precision(precision) or np.dtype(np.float64)
    inputs = np.asarray(inputs, dtype=dtype)
    if inputs.ndim != 3 or inputs.shape[2] != network.sizes[0]:
        raise ShapeError(f"expected (batch, T, {network.sizes[0]}) inputs, "
                         f"got {inputs.shape}")
    layers = network.layers
    leaves = [Tensor(_resolve_weight_override(layer, weight).T.astype(
                  dtype, copy=False), requires_grad=True)
              for layer, weight in zip(layers,
                                       _per_layer_weights(network, weights))]
    steps = inputs.shape[1]
    tape = Unroll(leaves, [Tensor(inputs[:, t, :], requires_grad=True)
                           for t in range(steps)],
                  dtype, tuple(network.sizes), inputs.shape[0])
    spike_fn = smooth_spike if smooth else spike
    detach = mode == "truncated"

    def carried(tensor: Tensor) -> Tensor:
        return tensor.detach() if detach else tensor

    for t in range(steps):
        below = tape.inputs[t]
        for index, (layer, weight) in enumerate(zip(layers, leaves)):
            state = tape.state[index]
            neuron = layer.neuron
            threshold = layer.params.v_th
            if layer.neuron_kind == "adaptive":
                # k[t] = alpha*k[t-1] + O_below[t]            (eq. 9)
                k = below if t == 0 else add(
                    scale(carried(state["k"]), layer.alpha), below)
                g = matmul(k, weight)                         # eq. 7
                # h[t] = beta*h[t-1] + O[t-1]; h[0] = 0       (eq. 8)
                h = (Tensor(np.zeros_like(g.data)) if t == 0 else
                     add(scale(carried(state["h"]), neuron.beta_r),
                         state["o"]))
                v = sub(g, scale(h, layer.params.theta))      # eq. 6
                out = spike_fn(v, threshold, layer.surrogate)  # eqs. 10-11
                state.update(k=k, h=h, o=out)
            else:
                k = None
                drive = matmul(below, weight)
                if neuron.input_gain != 1.0:
                    drive = scale(drive, neuron.input_gain)
                v = drive if t == 0 else add(
                    scale(state["v"], neuron.alpha), drive)
                out = spike_fn(v, threshold, layer.surrogate)
                state["v"] = mul(v, 1.0 - out.data)   # eq. 1b, gate constant
            tape.outputs[index].append(out)
            tape.membranes[index].append(v)
            tape.traces[index].append(k)
            below = out
    tape.state = [{key: tensor.data for key, tensor in state.items()}
                  for state in tape.state]
    return tape
