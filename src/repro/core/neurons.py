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

Both neurons expose the same ``reset_state`` / ``step`` interface operating
on ``(batch, n)`` arrays so that a trained network can be re-evaluated with
either dynamic (the paper's Table II HR swap).

``step`` advances one neuron bank by one time step and holds the
incremental state (``h``/``last_output`` for adaptive, ``v`` for hard
reset): the single-neuron view Fig. 1's dynamics plot steps through.
The fused engine (:mod:`repro.core.engine`, behind ``SpikingNetwork.run``)
evaluates the *same* recurrences as whole-sequence scans over
``(T, batch, n)`` buffers; it bypasses ``step`` entirely for speed and
never writes these objects' state (a network's run state lives in the
caller's :class:`~repro.core.engine.StreamState`, or nowhere after a
one-shot run).  The reference oracle for whole networks is the autograd
tape (:func:`repro.autograd.reference.unroll`); ``step`` itself is
pinned by ``tests/unit/test_neurons.py`` and
``tests/property/test_neuron_equivalence.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.config import BaseConfig
from ..common.errors import StateError
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
    ``O[t] = 1  iff  g[t] > theta*h[t] + Vth``; :meth:`adaptive_threshold`
    exposes ``Vth + theta*h`` for inspection and the circuit comparison.
    """

    kind = "adaptive"

    def __init__(self, n: int, params: NeuronParameters | None = None):
        if n <= 0:
            raise ValueError(f"neuron count must be positive, got {n}")
        self.n = int(n)
        self.params = params or NeuronParameters()
        self.beta_r = decay_from_tau(self.params.tau_r)
        self.h: np.ndarray | None = None
        self.last_output: np.ndarray | None = None

    def reset_state(self, batch_size: int, dtype=np.float64) -> None:
        """Zero the reset filter and the remembered previous output."""
        self.h = np.zeros((batch_size, self.n), dtype=dtype)
        self.last_output = np.zeros((batch_size, self.n), dtype=dtype)

    def step(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance one step given the weighted PSP ``g`` (batch, n).

        Returns
        -------
        (spikes, v):
            ``spikes`` is a float 0/1 array; ``v`` is the membrane value
            ``g - theta*h`` used for the threshold test (and whose centred
            value feeds the surrogate gradient during training).
        """
        if self.h is None or self.last_output is None:
            raise StateError("AdaptiveLIFNeuron.step called before reset_state")
        self.h = self.beta_r * self.h + self.last_output
        v = g - self.params.theta * self.h
        spikes = (v >= self.params.v_th).astype(v.dtype)
        self.last_output = spikes
        return spikes, v

    def adaptive_threshold(self) -> np.ndarray:
        """Current effective threshold ``Vth + theta*h[t]`` (eq. 12 view)."""
        if self.h is None:
            raise StateError("neuron state not initialised")
        return self.params.v_th + self.params.theta * self.h

    def adaptive_threshold_preview(self) -> np.ndarray:
        """The threshold the *next* :meth:`step` call will compare against.

        ``step`` first advances ``h[t] = beta*h[t-1] + O[t-1]`` and then
        tests ``g[t] >= Vth + theta*h[t]``; this previews that value so the
        eq. 12 equivalence can be checked from outside.
        """
        if self.h is None or self.last_output is None:
            raise StateError("neuron state not initialised")
        h_next = self.beta_r * self.h + self.last_output
        return self.params.v_th + self.params.theta * h_next

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
        self.v: np.ndarray | None = None

    def reset_state(self, batch_size: int, dtype=np.float64) -> None:
        """Zero the membrane potential."""
        self.v = np.zeros((batch_size, self.n), dtype=dtype)

    def step(self, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance one step given raw weighted input ``j`` (batch, n).

        Returns ``(spikes, v_pre)`` where ``v_pre`` is the membrane value
        *before* the reset (the value compared against threshold, and the
        value the surrogate gradient is evaluated at).
        """
        if self.v is None:
            raise StateError("HardResetLIFNeuron.step called before reset_state")
        v_pre = self.alpha * self.v + self.input_gain * j
        spikes = (v_pre >= self.params.v_th).astype(v_pre.dtype)
        # Hard reset to v_rest = 0 (paper eq. 1b): history is destroyed.
        self.v = v_pre * (1.0 - spikes)
        return spikes, v_pre

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
