"""Loss functions for the paper's two learning tasks (Section III).

* :class:`CrossEntropyRateLoss` — classification: output spike *counts* are
  mapped to class probabilities by a softmax and scored with cross-entropy.

* :class:`VanRossumLoss` — temporal pattern association (eqs. 15-16): both
  the emitted and the target spike trains are convolved with the kernel
  ``f[t] = e^{-t/tau_m} - e^{-t/tau_s}`` and the loss is the mean squared
  distance between the two traces,

  .. math::

      D(S_i, S_j) = \\frac{1}{2T} \\sum_t (f*S_i - f*S_j)^2[t]

  summed over output trains and averaged over the batch.

Each loss exposes ``value_and_grad(outputs, targets)`` returning the scalar
loss and ``dE/dO`` (same shape as ``outputs``), which feeds directly into
:func:`repro.core.backprop.backward`, plus task-appropriate ``metrics``.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ShapeError
from .filters import DoubleExponentialKernel

__all__ = ["CrossEntropyRateLoss", "VanRossumLoss", "softmax"]


def _require_nonempty(outputs: np.ndarray) -> None:
    """A loss needs at least one sample and one step: an empty batch or
    sequence has no mean to take."""
    if outputs.shape[0] == 0 or outputs.shape[1] == 0:
        raise ShapeError(
            f"expected at least one sample and one step, got {outputs.shape}")


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


class CrossEntropyRateLoss:
    """Softmax cross-entropy over output spike counts.

    Parameters
    ----------
    count_scale:
        Multiplier applied to the spike counts before the softmax.  Raw
        counts over a few hundred steps saturate the softmax; the paper
        maps "spike rate" to probability, so a scale of ``1/T`` (or any
        temperature) keeps gradients alive.  ``None`` (default) scales by
        ``10 / T`` at call time, which puts typical count differences in a
        useful logit range regardless of sequence length.
    """

    task = "classification"

    def __init__(self, count_scale: float | None = None):
        self.count_scale = count_scale

    def _scale(self, steps: int) -> float:
        if self.count_scale is not None:
            return self.count_scale
        return 10.0 / float(steps)

    def value_and_grad(self, outputs: np.ndarray,
                       labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and gradient.

        Parameters
        ----------
        outputs:
            Output spikes, shape (batch, T, classes).
        labels:
            Integer class labels, shape (batch,).
        """
        outputs = np.asarray(outputs, dtype=np.float64)
        labels = np.asarray(labels)
        if outputs.ndim != 3:
            raise ShapeError(f"outputs must be (batch, T, classes), got {outputs.shape}")
        _require_nonempty(outputs)
        batch, steps, classes = outputs.shape
        if labels.shape != (batch,):
            raise ShapeError(f"labels must be ({batch},), got {labels.shape}")
        if labels.min() < 0 or labels.max() >= classes:
            raise ShapeError(
                f"labels must be in [0, {classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        scale = self._scale(steps)
        logits = outputs.sum(axis=1) * scale          # (batch, classes)
        probs = softmax(logits, axis=1)
        eps = 1e-12
        loss = float(-np.mean(np.log(probs[np.arange(batch), labels] + eps)))
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(batch), labels] = 1.0
        grad_logits = (probs - one_hot) / batch       # (batch, classes)
        # Every time step contributes equally to the count.
        grad_outputs = np.repeat(grad_logits[:, None, :] * scale, steps, axis=1)
        return loss, grad_outputs

    def predict(self, outputs: np.ndarray) -> np.ndarray:
        """Predicted class per sample: argmax of output spike counts."""
        outputs = np.asarray(outputs)
        counts = outputs.sum(axis=1)
        return np.argmax(counts, axis=1)

    def metrics(self, outputs: np.ndarray, labels: np.ndarray) -> dict:
        """``{"accuracy": fraction correct}``."""
        predictions = self.predict(outputs)
        return {"accuracy": float(np.mean(predictions == np.asarray(labels)))}


class VanRossumLoss:
    """Kernelised spike-train distance loss (paper eqs. 15-16).

    Parameters
    ----------
    tau_m, tau_s:
        Kernel time constants (Table I: 4 and 1).
    """

    task = "association"

    def __init__(self, tau_m: float = 4.0, tau_s: float = 1.0):
        self.kernel = DoubleExponentialKernel(tau_m=tau_m, tau_s=tau_s)

    def value_and_grad(self, outputs: np.ndarray,
                       targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and gradient.

        Parameters
        ----------
        outputs, targets:
            Spike arrays of identical shape (batch, T, trains).
        """
        outputs = np.asarray(outputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if outputs.shape != targets.shape:
            raise ShapeError(
                f"outputs {outputs.shape} and targets {targets.shape} differ"
            )
        if outputs.ndim != 3:
            raise ShapeError(f"expected (batch, T, trains), got {outputs.shape}")
        _require_nonempty(outputs)
        batch, steps, _ = outputs.shape
        # Linearity: f*O - f*S = f*(O - S).
        diff_trace = self.kernel.convolve(outputs - targets, time_axis=1)
        loss = float(np.sum(diff_trace ** 2) / (2.0 * steps * batch))
        grad = self.kernel.adjoint_convolve(diff_trace, time_axis=1)
        grad /= steps * batch
        return loss, grad

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Plain van Rossum distance between two equal-shape spike arrays,
        per eq. 15 (summed over trains, averaged over a leading batch axis
        if present)."""
        a = np.atleast_3d(np.asarray(a, dtype=np.float64))
        b = np.atleast_3d(np.asarray(b, dtype=np.float64))
        if a.shape != b.shape:
            raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
        _require_nonempty(a)
        steps = a.shape[1]
        diff = self.kernel.convolve(a - b, time_axis=1)
        return float(np.sum(diff ** 2) / (2.0 * steps * a.shape[0]))

    def metrics(self, outputs: np.ndarray, targets: np.ndarray) -> dict:
        """``{"van_rossum": mean distance per sample}``."""
        return {"van_rossum": self.distance(outputs, targets)}
