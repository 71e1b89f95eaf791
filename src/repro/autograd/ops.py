"""Differentiable operations for the autograd engine.

Each op builds a child :class:`~repro.autograd.tensor.Tensor` whose
``backward_fn`` scatters the output gradient to the inputs.  The op set is
exactly what the paper's model and losses need — elementwise arithmetic,
matmul, reductions, exp/log — plus :func:`spike` : a Heaviside forward with
a pluggable surrogate backward, which makes the engine compute the *same*
pseudo-gradients as the hand-written BPTT so the two can be compared
bitwise.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "add", "sub", "mul", "neg", "matmul", "scale",
    "tsum", "tmean", "exp", "log", "square", "sigmoid",
    "spike", "smooth_spike",
]


def _make(data, parents, backward_fn):
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires,
                  parents=[p for p in parents if p.requires_grad],
                  backward_fn=backward_fn if requires else None)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(-grad)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * b.data)
        if b.requires_grad:
            b._accumulate(grad * a.data)

    return _make(a.data * b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(-grad)

    return _make(-a.data, (a,), backward)


def scale(a, factor: float) -> Tensor:
    """Multiply by a python scalar (no graph node for the scalar)."""
    a = as_tensor(a)
    factor = float(factor)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * factor)

    return _make(a.data * factor, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ grad)

    return _make(a.data @ b.data, (a, b), backward)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(grad, a.data.shape))
        else:
            a._accumulate(np.broadcast_to(
                np.expand_dims(grad, axis), a.data.shape))

    return _make(a.data.sum(axis=axis), (a,), backward)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(grad):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(grad / count, a.data.shape))
        else:
            a._accumulate(np.broadcast_to(
                np.expand_dims(grad / count, axis), a.data.shape))

    return _make(a.data.mean(axis=axis), (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return _make(np.log(a.data), (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * 2.0 * a.data)

    return _make(a.data ** 2, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def spike(v, threshold: float, surrogate) -> Tensor:
    """Heaviside forward, surrogate backward (paper eqs. 10-11 + 14).

    Forward emits ``1.0`` where ``v >= threshold``; backward multiplies the
    incoming gradient by ``surrogate.derivative(v - threshold)`` — exactly
    the pseudo-gradient rule the manual BPTT uses, so both implementations
    are comparable to machine precision.
    """
    v = as_tensor(v)
    centred = v.data - float(threshold)
    out_data = (centred >= 0.0).astype(v.data.dtype)

    def backward(grad):
        if v.requires_grad:
            v._accumulate(grad * surrogate.derivative(centred))

    return _make(out_data, (v,), backward)


def smooth_spike(v, threshold: float, surrogate) -> Tensor:
    """Fully smooth relaxation: forward uses ``surrogate.smooth_step``.

    Used by finite-difference tests — with a smooth forward the whole
    network becomes differentiable, so autograd gradients can be checked
    against central differences, closing the chain of trust
    (FD -> autograd -> manual BPTT).
    """
    v = as_tensor(v)
    centred = v.data - float(threshold)
    out_data = surrogate.smooth_step(centred)

    def backward(grad):
        if v.requires_grad:
            v._accumulate(grad * surrogate.derivative(centred))

    return _make(out_data, (v,), backward)


# -- attach operator sugar to Tensor ------------------------------------------
def _radd(self, other):
    return add(self, other)


Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = _radd
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(as_tensor(other), self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(self, other)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.sum = lambda self, axis=None: tsum(self, axis=axis)
Tensor.mean = lambda self, axis=None: tmean(self, axis=axis)
