"""Pseudo-gradients for the Heaviside spike function — the paper's eq. (14).

The spike nonlinearity ``O = U(v - Vth)`` has a Dirac-delta derivative,
which blocks back-propagation.  The paper substitutes the derivative of a
complementary error function:

.. math::

    U'(x) \\approx \\frac{e^{-x^2 / 2\\sigma^2}}{\\sqrt{2\\pi}\\,\\sigma}

with sharpness ``sigma = 1/sqrt(2*pi)`` (Table I), which makes the peak
pseudo-derivative exactly 1.  (Eq. 14 in the paper carries a sign typo —
``erfc`` is decreasing, so the smooth step must be ``erfc(-x/...)/2``; the
*magnitude* of the derivative, which is all BPTT uses, is the Gaussian
above.)

Alternative surrogates common in the literature are provided for the
ablation bench (`benchmarks/bench_ablation_surrogate.py`).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

__all__ = [
    "SurrogateGradient",
    "ErfcSurrogate",
    "SigmoidSurrogate",
    "TriangleSurrogate",
    "RectangularSurrogate",
    "get_surrogate",
    "PAPER_SIGMA",
]

# Table I: sigma = 1/sqrt(2*pi); the pseudo-derivative then peaks at 1.
PAPER_SIGMA = 1.0 / np.sqrt(2.0 * np.pi)


class SurrogateGradient:
    """Interface: a smooth stand-in for the Heaviside derivative.

    Subclasses implement :meth:`derivative`, mapping the *centred* membrane
    value ``x = v - Vth`` to the pseudo-derivative ``dO/dv`` used in BPTT.
    The forward spike decision always remains the exact Heaviside — the
    surrogate only affects gradients.

    ``derivative(x, out=None)`` always computes in float64, as a sequence
    of ufuncs evaluated in place over one buffer: ``out`` when given (a
    float64 array of ``x``'s shape; it may be ``x`` itself), else a single
    fresh array.  The fused backward passes an arena buffer holding
    ``v - Vth`` as both ``x`` and ``out``.
    """

    name = "base"

    def derivative(self, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _start(x, out: np.ndarray | None) -> np.ndarray:
        """``x`` as float64 in ``out`` (or in one new array): the buffer
        the in-place ufunc sequence of :meth:`derivative` runs over."""
        if out is None:
            return np.array(x, dtype=np.float64)
        if out.dtype != np.float64 or out.shape != np.shape(x):
            raise ValueError(
                f"out must be a float64 array of shape {np.shape(x)}, "
                f"got {out.dtype} {out.shape}")
        if out is not x:
            np.copyto(out, x)
        return out

    def smooth_step(self, x: np.ndarray) -> np.ndarray:
        """A smooth approximation of ``U(x)`` (used only for inspection)."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.derivative(x)

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v:g}" for k, v in sorted(vars(self).items()))
        return f"{type(self).__name__}({params})"


class ErfcSurrogate(SurrogateGradient):
    """The paper's surrogate: Gaussian pseudo-derivative of width ``sigma``."""

    name = "erfc"

    def __init__(self, sigma: float = PAPER_SIGMA):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)

    def derivative(self, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        # exp(-(x*x) / (2 sigma^2)) / (sqrt(2 pi) sigma); the sign rides
        # on the divisor: IEEE division is sign-symmetric, so a/(-b) has
        # the bits of (-a)/b without a pass of its own.
        out = self._start(x, out)
        np.multiply(out, out, out=out)
        np.divide(out, -(2.0 * self.sigma ** 2), out=out)
        np.exp(out, out=out)
        np.divide(out, np.sqrt(2.0 * np.pi) * self.sigma, out=out)
        return out

    def smooth_step(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * erfc(-x / (np.sqrt(2.0) * self.sigma))


class SigmoidSurrogate(SurrogateGradient):
    """SuperSpike-style fast sigmoid: ``1 / (1 + beta*|x|)^2``."""

    name = "sigmoid"

    def __init__(self, beta: float = 5.0):
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)

    def derivative(self, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        out = self._start(x, out)
        np.abs(out, out=out)
        np.multiply(out, self.beta, out=out)
        np.add(out, 1.0, out=out)
        np.square(out, out=out)
        np.divide(1.0, out, out=out)
        return out

    def smooth_step(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        scaled = self.beta * x
        return 0.5 * (1.0 + scaled / (1.0 + np.abs(scaled)))


class TriangleSurrogate(SurrogateGradient):
    """Piecewise-linear hat: ``max(0, 1 - |x|/width) / width``."""

    name = "triangle"

    def __init__(self, width: float = 1.0):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = float(width)

    def derivative(self, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        out = self._start(x, out)
        np.abs(out, out=out)
        np.divide(out, self.width, out=out)
        np.subtract(1.0, out, out=out)
        np.maximum(0.0, out, out=out)
        np.divide(out, self.width, out=out)
        return out

    def smooth_step(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        clipped = np.clip(x / self.width, -1.0, 1.0)
        return 0.5 + clipped - np.sign(clipped) * clipped ** 2 / 2.0


class RectangularSurrogate(SurrogateGradient):
    """Boxcar: ``1/(2*half_width)`` inside ``|x| <= half_width`` else 0."""

    name = "rectangular"

    def __init__(self, half_width: float = 0.5):
        if half_width <= 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        self.half_width = float(half_width)

    def derivative(self, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        out = self._start(x, out)
        np.abs(out, out=out)
        np.less_equal(out, self.half_width, out=out)
        np.divide(out, 2.0 * self.half_width, out=out)
        return out

    def smooth_step(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.clip(0.5 + x / (2.0 * self.half_width), 0.0, 1.0)


_REGISTRY = {
    "erfc": ErfcSurrogate,
    "sigmoid": SigmoidSurrogate,
    "triangle": TriangleSurrogate,
    "rectangular": RectangularSurrogate,
}


def get_surrogate(name: str, **kwargs) -> SurrogateGradient:
    """Look up a surrogate by name (``erfc``/``sigmoid``/``triangle``/``rectangular``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown surrogate {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
