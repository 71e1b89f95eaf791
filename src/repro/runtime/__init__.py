"""Parallel runtime: worker pools and data-parallel training.

This package scales the fused simulation engine across processes (the
engine's buffers stay with each thread's arena,
:func:`repro.core.workspace.arena`, in every process):

* :mod:`repro.runtime.pool` — a persistent, self-healing worker pool
  holding the network weights in shared memory.  One call shape serves
  forward chunks, gradient shards and Fig. 8 device-noise draws: named
  arrays staged once in a shared-memory arena, and a module-level
  function run on views of them per shard; ``map`` runs generic sweep
  tasks.  Dead or hung workers are respawned from the original spec
  and their in-flight shards requeued, bitwise-transparently;
* :mod:`repro.runtime.parallel` — the deterministic shard split and
  fixed-order reduction shared by the serial and pooled paths (the basis
  of the bitwise parallel == serial equivalence tests).

Everything is opt-in: with no pool every path is the serial in-process
one.  An owner that holds a pool for a whole job takes a worker count:
``TrainerConfig(workers=N)``, the experiment runners (``workers=N`` or the
``REPRO_WORKERS`` environment variable) and ``WorkerPool(workers=N)``
itself.  The per-call functions (``run_in_batches`` and
``accuracy_under_variation``) take a caller-owned pool as ``pool=``, so
one pool's process and shared-memory setup is paid once per job, not per
call.
"""

from .parallel import (
    combine_shard_results,
    data_parallel_grads,
    parallel_map,
    resolve_workers,
    shard_grads,
    shard_slices,
)
from .pool import PoolTransportError, WorkerError, WorkerPool

__all__ = [
    "PoolTransportError",
    "WorkerError",
    "WorkerPool",
    "combine_shard_results",
    "data_parallel_grads",
    "parallel_map",
    "resolve_workers",
    "shard_grads",
    "shard_slices",
]
