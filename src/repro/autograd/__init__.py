"""Minimal reverse-mode automatic differentiation: the reference oracle.

:func:`~repro.autograd.reference.unroll` rebuilds a
:class:`~repro.core.network.SpikingNetwork`'s forward pass on the tape and
differentiates it mechanically; the fused engine and its hand-derived BPTT
(:mod:`repro.core.backprop`) are checked against it, and
``SpikingNetwork.run(engine="step")`` / ``shard_grads(engine="step")`` run
it.
"""

from .functional import cross_entropy_with_logits, van_rossum_loss
from .ops import (
    add,
    exp,
    log,
    matmul,
    mul,
    neg,
    scale,
    sigmoid,
    smooth_spike,
    spike,
    square,
    sub,
    tmean,
    tsum,
)
from .reference import Unroll, unroll
from .tensor import Tensor, as_tensor, unbroadcast

__all__ = [
    "cross_entropy_with_logits",
    "van_rossum_loss",
    "add",
    "exp",
    "log",
    "matmul",
    "mul",
    "neg",
    "scale",
    "sigmoid",
    "smooth_spike",
    "spike",
    "square",
    "sub",
    "tmean",
    "tsum",
    "Unroll",
    "unroll",
    "Tensor",
    "as_tensor",
    "unbroadcast",
]
