"""Spiking layers: synapse filter bank + crossbar weights + neuron bank.

A :class:`SpikingLinear` layer is the software model of one stage of the
paper's Fig. 3 pipeline:

* an array of synapse filters ``k`` (eq. 9) turns the previous layer's
  spike trains into PSP traces — in hardware, the RC filters at the
  word-lines;
* a dense weight matrix performs ``g = W k`` (eq. 7) — in hardware, the
  RRAM crossbar dot product;
* a neuron bank compares ``g`` against the (adaptive) threshold and emits
  spikes (eqs. 6, 8, 10) — in hardware, the comparator + feedback-RC
  circuit of Fig. 6.

For the hard-reset baseline (eq. 1) the synapse filter is absorbed into the
membrane itself: the layer feeds the raw weighted spikes ``W x`` to a
:class:`~repro.core.neurons.HardResetLIFNeuron`, whose leaky membrane
performs the same integration but is destroyed on firing.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ShapeError
from ..common.rng import RandomState, as_random_state
from .filters import decay_from_tau, exp_scan
from .neurons import NeuronParameters, make_neuron
from .surrogate import ErfcSurrogate, SurrogateGradient

__all__ = ["SpikingLinear", "LayerStepRecord"]


class LayerStepRecord:
    """Per-layer time-stacked tensors captured during a recorded run.

    The tensors are indexed ``[batch, t, neuron]``.  A fused-engine record
    holds them as ``swapaxes`` views of the engine's time-major
    ``(T, batch, n)`` buffers (see :class:`~repro.core.network.RunRecord`).

    Attributes
    ----------
    v:
        Membrane values (pre-reset for HR), shape (batch, T, n_out).
    spikes:
        Output spikes, shape (batch, T, n_out).
    k:
        Synapse-filter states, shape (batch, T, n_in); ``None`` for
        hard-reset layers (which have no separate synapse filter).  Not
        recorded: BPTT moves the filter onto the adjoint and never reads
        it, so the trace is derived on first read as
        ``exp_scan(inputs, alpha)`` from the layer's input spikes (the
        ``alpha*k + x`` recurrence of eq. 9) and cached.

    ``inputs`` is the layer's input spike array (held by reference, like
    :meth:`~repro.core.network.RunRecord.layer_input`) and ``alpha`` the
    synapse-filter decay; ``alpha=None`` marks a layer without a filter.
    """

    def __init__(self, v: np.ndarray, spikes: np.ndarray,
                 inputs: np.ndarray, alpha: float | None):
        self.v = v
        self.spikes = spikes
        self._inputs = inputs
        self._alpha = alpha
        self._k: np.ndarray | None = None

    @property
    def k(self) -> np.ndarray | None:
        if self._k is None and self._alpha is not None:
            self._k = exp_scan(self._inputs, self._alpha)
        return self._k

    @classmethod
    def for_layer(cls, layer: "SpikingLinear", inputs: np.ndarray,
                  v: np.ndarray, spikes: np.ndarray) -> "LayerStepRecord":
        """The record of ``layer`` run over ``inputs``."""
        alpha = layer.alpha if layer.neuron_kind == "adaptive" else None
        return cls(v=v, spikes=spikes, inputs=inputs, alpha=alpha)


class SpikingLinear:
    """A fully-connected spiking layer (synapse filters + weights + neurons).

    A layer holds parameters, never run state: it runs inside a
    :class:`~repro.core.network.SpikingNetwork`
    (``SpikingNetwork.from_layers([layer])`` runs it alone).

    Parameters
    ----------
    n_in, n_out:
        Fan-in / fan-out.
    params:
        Neuron hyper-parameters (Table I defaults when omitted); ``tau``
        also sets the synapse-filter time constant.
    neuron_kind:
        ``"adaptive"`` (the paper's model) or ``"hard_reset"`` (eq. 1
        baseline).
    surrogate:
        Pseudo-gradient used during training (paper: erfc, eq. 14).
    weight_scale:
        Std-dev multiplier of the ``N(0, scale/sqrt(n_in))`` init.  The
        default compensates the synapse filter's DC gain ``1/(1-alpha)`` so
        initial PSPs sit near threshold.
    rng:
        Seed / :class:`~repro.common.rng.RandomState` for the weight init.
    weight:
        A ready ``(n_out, n_in)`` weight array the layer is built around,
        held as given (no copy); the init is skipped, so ``weight_scale``
        and ``rng`` are unused.  A clone passes the array it shares
        (:meth:`copy_with_neuron`) or a private copy it owns.
    """

    def __init__(self, n_in: int, n_out: int,
                 params: NeuronParameters | None = None,
                 neuron_kind: str = "adaptive",
                 surrogate: SurrogateGradient | None = None,
                 weight_scale: float | None = None,
                 rng: RandomState | int | None = None,
                 name: str = "", weight: np.ndarray | None = None):
        if n_in <= 0 or n_out <= 0:
            raise ValueError(f"layer sizes must be positive, got {n_in}x{n_out}")
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.params = params or NeuronParameters()
        self.neuron_kind = neuron_kind
        self.neuron = make_neuron(neuron_kind, n_out, self.params)
        self.surrogate = surrogate or ErfcSurrogate()
        self.alpha = decay_from_tau(self.params.tau)
        self.name = name or f"spiking_linear_{n_in}x{n_out}"

        if weight is not None:
            if weight.shape != (self.n_out, self.n_in):
                raise ShapeError(
                    f"{self.name}: weight shape {weight.shape} != "
                    f"{(self.n_out, self.n_in)}")
            self.weight = weight
        else:
            if weight_scale is None:
                # The filter's steady-state gain for a dense input is
                # 1/(1-alpha); scale down so initial activity is moderate.
                weight_scale = 2.0 * (1.0 - self.alpha)
            generator = as_random_state(rng)
            self.weight = generator.normal(
                0.0, weight_scale / np.sqrt(self.n_in),
                (self.n_out, self.n_in))

    # -- utilities ----------------------------------------------------------
    def copy_with_neuron(self, neuron_kind: str) -> "SpikingLinear":
        """A new layer *sharing this layer's weight array* with another neuron.

        This is the paper's Table II 'HR' experiment: keep structure and
        weights, swap the dynamics.
        """
        return SpikingLinear(
            self.n_in, self.n_out, params=self.params,
            neuron_kind=neuron_kind, surrogate=self.surrogate,
            name=self.name + f"[{neuron_kind}]", weight=self.weight,
        )

    def __repr__(self) -> str:
        return (f"SpikingLinear({self.n_in}->{self.n_out}, "
                f"kind={self.neuron_kind!r}, tau={self.params.tau})")
