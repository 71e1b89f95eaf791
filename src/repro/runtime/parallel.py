"""Deterministic data-parallel primitives shared by the serial and pooled paths.

The parallel runtime's equivalence guarantee rests on one rule: **the pooled
execution runs exactly the code the serial execution runs, on exactly the
same shards, and reduces in exactly the same order.**  This module holds
that shared code:

* :func:`shard_slices` — the contiguous batch split (fixed for a given
  ``(n, n_shards)``, independent of how the shards are later executed);
* :func:`shard_grads` — forward + loss + BPTT on one shard (called
  in-process by the serial path and inside each worker by
  :class:`~repro.runtime.pool.WorkerPool`);
* :func:`combine_shard_results` — the fixed-order weighted reduction of
  shard losses/gradients (shard 0 first, then 1, ...), which makes the
  parallel ``train_batch`` bitwise-reproducible and bitwise-equal to a
  serial execution of the same sharded algorithm;
* :func:`data_parallel_grads` — the dispatcher tying the three together,
  with ``pool=None`` meaning "run the shards serially in-process".

Reduction-order note: summing per-shard gradients is *not* the same
floating-point expression as the full-batch contraction (BLAS accumulates
the batch axis in blocked order), so ``n_shards >= 2`` matches the
full-batch gradients only to rounding (~1e-13 relative in float64) — while
being bitwise-identical between pooled and serial execution of the same
shard count.  ``n_shards == 1`` *is* the full-batch computation, so a
one-worker pool is bitwise-equal to the plain serial trainer.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "resolve_workers",
    "shard_slices",
    "shard_grads",
    "combine_shard_results",
    "data_parallel_grads",
    "parallel_map",
]


def resolve_workers(workers: int | None = None) -> int:
    """``workers`` argument > ``REPRO_WORKERS`` env var > 0 (serial).

    0 means "no pool, run in-process"; ``n > 0`` means a pool of ``n``
    worker processes.  A negative count from either source raises
    ``ValueError``.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 0
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}")
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def shard_slices(n: int, n_shards: int) -> list[slice]:
    """Contiguous batch shards, sizes differing by at most one.

    Deterministic in ``(n, n_shards)`` — the same split whether the shards
    are then run serially, or on 2 workers, or on 8.  Empty shards (when
    ``n < n_shards``) are dropped.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    base, extra = divmod(int(n), int(n_shards))
    slices = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        slices.append(slice(start, start + size))
        start += size
    return slices


def shard_grads(network, loss, inputs: np.ndarray, targets: np.ndarray,
                mode: str = "exact", engine: str = "fused",
                precision: str | None = None, weights=None):
    """Forward + loss + BPTT on one shard.

    Returns ``(loss_value, shard_size, weight_grads)``.  This is the unit
    of work a pool worker executes; the serial path calls it in-process so
    both paths share every arithmetic operation.  The recorded traces go
    back to the thread's arena before it returns, so the next shard of
    the same shape reuses every buffer.

    ``weights`` (optional per-layer overrides) runs the forward **and**
    the backward through substituted weight matrices — the
    straight-through-estimator step of hardware-aware training: the
    returned gradients are with respect to the override values and are
    applied to the master weights unchanged.

    ``engine="step"`` returns the reference oracle's loss and gradients
    instead: ``loss`` on the output spikes of the autograd tape
    (:func:`repro.autograd.reference.unroll`), its gradient seeding the
    tape's backward.  It takes no ``weights``.
    """
    from ..core.backprop import backward
    from ..core.workspace import arena

    if engine == "step":
        if weights is not None:
            raise ValueError("engine='step' runs the autograd tape; "
                             "weights= is a fused-engine feature")
        from ..autograd.reference import unroll

        tape = unroll(network, inputs, precision=precision, mode=mode)
        loss_value, grad_outputs = loss.value_and_grad(tape.spikes(), targets)
        return (float(loss_value), int(inputs.shape[0]),
                tape.backward(grad_outputs).weight_grads)
    if engine != "fused":
        raise ValueError(f"engine must be 'fused' or 'step', got {engine!r}")
    outputs, record = network.run(inputs, record=True, precision=precision,
                                  weights=weights)
    loss_value, grad_outputs = loss.value_and_grad(outputs, targets)
    result = backward(network, record, grad_outputs, mode=mode,
                      precision=precision, need_input_grad=False,
                      weights=weights)
    buffers = arena()
    # Never ``layer_record.k``: reading it would derive the trace only to
    # drop it.
    for layer_record in record.layers:
        buffers.release(layer_record.v, layer_record.spikes)
    return float(loss_value), int(inputs.shape[0]), result.weight_grads


def combine_shard_results(shard_results, n_total: int):
    """Fixed-order weighted reduction of per-shard ``(loss, n, grads)``.

    Each loss object averages over its batch, so the full-batch quantities
    are the ``n_s / n_total``-weighted sums, accumulated in shard order —
    the "bitwise-deterministic fixed reduction order" of the runtime.
    """
    if not shard_results:
        raise ValueError("no shard results to combine")
    total_loss = 0.0
    total_grads = None
    for loss_value, shard_n, grads in shard_results:
        weight = shard_n / float(n_total)
        total_loss += loss_value * weight
        if total_grads is None:
            total_grads = [g * weight for g in grads]
        else:
            for acc, g in zip(total_grads, grads):
                acc += g * weight
    return total_loss, total_grads


def data_parallel_grads(network, loss, inputs: np.ndarray,
                        targets: np.ndarray, n_shards: int,
                        mode: str = "exact",
                        precision: str | None = None, pool=None,
                        weights=None):
    """Mini-batch loss + weight gradients via ``n_shards`` data shards.

    ``pool=None`` executes the shards serially in-process (the reference
    the pooled path is bitwise-tested against); a
    :class:`~repro.runtime.pool.WorkerPool` executes them concurrently.
    Returns ``(loss_value, weight_grads)`` with the same semantics as the
    full-batch ``loss.value_and_grad`` + ``backward`` pair.

    ``weights`` substitutes the per-layer weight matrices of every shard's
    forward/backward (hardware-aware training).  The pooled path stages
    the override into the shared-memory weight block for the dispatch, so
    workers compute exactly the serial override arithmetic.
    """
    n = int(inputs.shape[0])
    slices = shard_slices(n, n_shards)
    if pool is not None:
        shard_results = pool.grad_shards(inputs, targets, slices, mode=mode,
                                         precision=precision, weights=weights)
    else:
        shard_results = [
            shard_grads(network, loss, inputs[sl], targets[sl], mode=mode,
                        precision=precision, weights=weights)
            for sl in slices
        ]
    return combine_shard_results(shard_results, n)


def parallel_map(fn, items, workers: int | None = None):
    """``[fn(item) for item in items]``, optionally over a worker pool.

    ``fn`` and the items must be picklable when ``workers >= 1`` (argument
    or ``REPRO_WORKERS``).  Results come back in input order.  With
    ``workers == 0`` (or one item) this is a plain list comprehension —
    identical results, no processes.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 0 or len(items) <= 1:
        return [fn(item) for item in items]
    from .pool import WorkerPool

    with WorkerPool(workers=min(workers, len(items))) as transient:
        return transient.map(fn, items)
