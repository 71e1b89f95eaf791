"""Spiking neuron models: the paper's adaptive-threshold LIF and the
hard-reset baseline it is compared against.

Two models from Section II of the paper:

* :class:`AdaptiveLIFNeuron` — the proposed model, eqs. (6)-(11).  The
  membrane value is ``v[t] = g[t] - theta*h[t]`` where ``g`` is the weighted
  PSP and ``h`` is a low-pass filter of the neuron's *own past output
  spikes*.  Equivalently (eq. 12) the neuron compares ``g[t]`` against an
  *adaptive threshold* ``Vth + theta*h[t]``.  Nothing is ever cleared: the
  filter state carries the full history.

* :class:`HardResetLIFNeuron` — the conventional ODE model, eq. (1),
  discretised.  The membrane integrates the weighted input directly and is
  zeroed whenever it crosses threshold, destroying temporal history — the
  behaviour the paper's ablation ("This work (HR)" in Table II) shows to be
  harmful on timing-rich data.

A neuron object is stateless: it holds the parameters of one bank of
``n`` neurons (``params``, the reset-filter decay ``beta_r`` of the
adaptive kind, the membrane decay ``alpha`` and ``input_gain`` of the
hard-reset kind) and nothing about a run.  The dynamics are stated in
two places only: the fused engine's kernels (:mod:`repro.core.engine`,
``_adaptive_forward`` and ``_hard_reset_forward``, behind
``SpikingNetwork.run``), which every workload runs, and the autograd
tape (:func:`repro.autograd.reference.unroll`), the reference oracle the
engine is tested against.  A run's state lives in the caller's
:class:`~repro.core.engine.StreamState`, or nowhere after a one-shot
run.  The paper identities below are pinned on engine records by
``tests/unit/test_neurons.py`` and
``tests/property/test_neuron_equivalence.py``.
"""

from __future__ import annotations

import dataclasses

from ..common.config import BaseConfig
from .filters import decay_from_tau

__all__ = [
    "NeuronParameters",
    "AdaptiveLIFNeuron",
    "HardResetLIFNeuron",
    "make_neuron",
]


@dataclasses.dataclass(frozen=True)
class NeuronParameters(BaseConfig):
    """Shared neuron hyper-parameters (paper Table I defaults).

    Attributes
    ----------
    tau:
        Membrane / synapse time constant in steps (paper: 4).
    tau_r:
        Reset-filter time constant in steps (paper: 4).
    v_th:
        Base firing threshold ``Vth``.
    theta:
        Reset-charge strength ``theta`` scaling the adaptive threshold
        increment per output spike.
    """

    tau: float = 4.0
    tau_r: float = 4.0
    v_th: float = 1.0
    theta: float = 1.0

    def validate(self) -> None:
        self.require_positive("tau")
        self.require_positive("tau_r")
        self.require_positive("v_th")
        self.require_non_negative("theta")


class AdaptiveLIFNeuron:
    """The paper's soft-reset neuron (eqs. 6-11).

    Per step (given the weighted PSP ``g[t]`` from the synapse filter and
    crossbar):

    .. math::

        h[t] = e^{-1/\\tau_r} h[t-1] + O[t-1]   \\qquad (8)

        v[t] = g[t] - \\theta h[t]              \\qquad (6)

        O[t] = U(v[t] - V_{th})                 \\qquad (10, 11)

    The equivalent adaptive-threshold reading (eq. 12) is
    ``O[t] = 1  iff  g[t] >= theta*h[t] + Vth``: the threshold
    ``Vth + theta*h`` rises by ``theta`` the step after each output spike
    and decays back to ``Vth`` (Fig. 1's runner plots it).
    """

    kind = "adaptive"

    def __init__(self, n: int, params: NeuronParameters | None = None):
        if n <= 0:
            raise ValueError(f"neuron count must be positive, got {n}")
        self.n = int(n)
        self.params = params or NeuronParameters()
        self.beta_r = decay_from_tau(self.params.tau_r)

    def __repr__(self) -> str:
        return f"AdaptiveLIFNeuron(n={self.n}, params={self.params})"


class HardResetLIFNeuron:
    """Discretised hard-reset LIF (paper eq. 1, the ablation baseline).

    Per step (given the raw weighted input ``j[t] = W x[t]``), with the
    default ``"impulse"`` discretization:

    .. math::

        v[t] = e^{-1/\\tau} v[t-1] + j[t]

        O[t] = U(v[t] - V_{th}); \\quad v[t] \\leftarrow 0 \\text{ if } O[t]=1

    Without the reset this accumulates exactly the same value as the
    adaptive model's PSP ``g[t]`` (both are the exponential filter of
    ``W x``); the *only* difference is that firing wipes the state.  That
    equality is property-tested in ``tests/property/test_neuron_equivalence.py``
    and is what makes the paper's weight-preserving neuron swap meaningful.

    ``discretization`` selects how the continuous ODE (1a) is stepped:

    * ``"impulse"`` — input spikes are Dirac impulses depositing charge
      ``w`` directly (exact ZOH solution for impulsive input).  This is
      the charge-conserving model of conventional accumulate-and-clear
      neuromorphic hardware, and the default.
    * ``"euler"`` — forward-Euler with the input treated as a constant
      current over the step: ``v[t] = (1-1/tau) v[t-1] + (1/tau) j[t]``.
      Its DC gain is 1 instead of ``1/(1-e^{-1/tau})``, so a network
      trained with SRM synapse filters is severely under-driven — a
      plausible reading of the paper's dramatic SHD collapse (Table II),
      reported as a separate ablation.
    """

    kind = "hard_reset"

    def __init__(self, n: int, params: NeuronParameters | None = None,
                 discretization: str = "impulse"):
        if n <= 0:
            raise ValueError(f"neuron count must be positive, got {n}")
        if discretization not in ("impulse", "euler"):
            raise ValueError(
                f"discretization must be 'impulse' or 'euler', "
                f"got {discretization!r}"
            )
        self.n = int(n)
        self.params = params or NeuronParameters()
        self.discretization = discretization
        if discretization == "impulse":
            self.alpha = decay_from_tau(self.params.tau)
            self.input_gain = 1.0
        else:
            self.alpha = 1.0 - 1.0 / self.params.tau
            self.input_gain = 1.0 / self.params.tau

    def __repr__(self) -> str:
        return (f"HardResetLIFNeuron(n={self.n}, params={self.params}, "
                f"discretization={self.discretization!r})")


def make_neuron(kind: str, n: int, params: NeuronParameters | None = None):
    """Factory: ``kind`` is ``"adaptive"``, ``"hard_reset"`` or
    ``"hard_reset_euler"``."""
    if kind == "adaptive":
        return AdaptiveLIFNeuron(n, params)
    if kind == "hard_reset":
        return HardResetLIFNeuron(n, params, discretization="impulse")
    if kind == "hard_reset_euler":
        return HardResetLIFNeuron(n, params, discretization="euler")
    raise ValueError(
        f"unknown neuron kind {kind!r}; use 'adaptive', 'hard_reset' or "
        f"'hard_reset_euler'"
    )
