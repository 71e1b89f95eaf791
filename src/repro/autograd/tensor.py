"""A minimal reverse-mode automatic-differentiation engine on numpy.

This is a *verification substrate*: the training algorithm of the paper is
hand-derived in :mod:`repro.core.backprop` for speed; this engine provides
an independent implementation of the same computation whose gradients come
from mechanical tape-based differentiation.  Tests build the paper's
network twice (manual and autograd) and require the gradients to agree to
machine precision.

Design: a :class:`Tensor` wraps an ``ndarray``, remembers its parents and a
closure that scatters its output gradient to them; :meth:`Tensor.backward`
runs the closures in reverse topological order.  Broadcasting is supported
by summing gradients back to the parent shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "as_tensor", "unbroadcast"]


def _as_float(data) -> np.ndarray:
    """``data`` as a float32 or float64 array (anything else as float64)."""
    data = np.asarray(data)
    if data.dtype in (np.float32, np.float64):
        return data
    return data.astype(np.float64)


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An array node in the autodiff graph.

    Parameters
    ----------
    data:
        Array (or scalar) value.
    requires_grad:
        Track operations on this tensor and accumulate ``.grad``.
    """

    def __init__(self, data, requires_grad: bool = False, parents=(),
                 backward_fn=None, name: str = ""):
        self.data = _as_float(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # -- graph plumbing ----------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this data, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                           self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # Topological order via iterative DFS.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operators (implemented in ops.py, attached there) -------------------
    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.shape}{flag})"


def as_tensor(value) -> Tensor:
    """Coerce arrays/scalars to a constant :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False)
