"""Arena bookkeeping under the time-major engine.

Engine buffers are time-major ``(T, batch, n)`` and leave the engine as
``(batch, T, n)`` ``swapaxes`` views (outputs, record tensors), which the
training step, pool workers and servers hand back to their thread's
arena.  A release must resolve a view to the buffer behind it;
otherwise the buffer stays lent until it is dropped and every step
allocates afresh.
"""

import os
import threading

import numpy as np
import pytest

from repro.core import (CrossEntropyRateLoss, SpikingNetwork, Trainer,
                        TrainerConfig)
from repro.core.workspace import Workspace, arena
from repro.runtime import WorkerPool

SIZES = (30, 16, 12, 4)
BATCH, STEPS = 8, 20
TRAIN_STEPS = 20


def in_thread(fn):
    """``fn()`` on a new thread, so on an arena of its own; its result."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    thread.start()
    thread.join(timeout=120)
    assert result, "the thread raised or hung"
    return result[0]


def test_release_resolves_views_to_the_lent_buffer():
    ws = Workspace()
    a = ws.empty((3, 4, 5))
    for view in (a.swapaxes(0, 1), a.reshape(12, 5), a[1:],
                 a.swapaxes(0, 1)[:, 2]):
        ws.release(view)
        assert ws.lent_count == 0
        assert ws.idle_bytes == a.nbytes
        assert ws.empty((3, 4, 5)) is a
    foreign = np.zeros((3, 4, 5))
    ws.release(foreign.swapaxes(0, 1))
    assert ws.lent_count == 1 and ws.idle_bytes == 0
    ws.release(a.swapaxes(0, 1), a)   # the second release is stale
    assert ws.lent_count == 0 and ws.idle_bytes == a.nbytes


def test_engine_outputs_are_views_of_lent_buffers():
    net = SpikingNetwork(SIZES, rng=2)
    x = (np.random.default_rng(0).random((BATCH, STEPS, SIZES[0]))
         < 0.3).astype(np.float64)

    def run():
        buffers = arena()
        outputs, _ = net.run(x)
        books = [(outputs.shape, outputs.base is not None,
                  buffers.lent_count)]
        buffers.release(outputs)
        books.append(buffers.lent_count)
        return books

    (shape, is_view, lent), after = in_thread(run)
    assert shape == (BATCH, STEPS, SIZES[-1])
    assert is_view and lent == 1
    assert after == 0


def make_trainer(precision, workers=0):
    net = SpikingNetwork(SIZES, rng=2)
    for layer in net.layers:
        layer.weight *= 4.0   # enough activity for nonzero gradients
    return Trainer(net, CrossEntropyRateLoss(), TrainerConfig(
        epochs=1, batch_size=BATCH, learning_rate=1e-2, precision=precision,
        workers=workers), rng=1)


def make_batch():
    rng = np.random.default_rng(0)
    x = (rng.random((BATCH, STEPS, SIZES[0])) < 0.3).astype(np.float64)
    return x, np.arange(BATCH) % SIZES[-1]


def books(buffers):
    """What an arena holds between steps: lent buffers, parked bytes."""
    return buffers.lent_count, buffers.idle_bytes


def assert_flat(history, lent=0):
    """Nothing more than ``lent`` stays lent, and the parked bytes never
    move after the first step sized the arena."""
    assert history, "no arena was used"
    assert all(count == lent for count, _ in history), history
    assert len({idle for _, idle in history}) == 1, history


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_serial_training_keeps_the_workspace_flat(precision):
    x, y = make_batch()

    def train():
        history = []
        with make_trainer(precision) as trainer:
            for _ in range(TRAIN_STEPS):
                trainer.train_batch(x, y)
                history.append(books(arena()))
        return history

    assert_flat(in_thread(train))


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_pool_workers_keep_their_workspaces_flat(precision, monkeypatch,
                                                 tmp_path):
    # Pool workers fork after the patch, so they inherit it and log their
    # own arena before and after every shard.  A forked worker starts on
    # an empty arena, so nothing is lent before its first shard.
    import repro.runtime.parallel as parallel

    log = tmp_path / "books.txt"
    shard_grads = parallel.shard_grads

    def logged(*args, **kwargs):
        buffers = arena()
        lent, misses = buffers.lent_count, buffers.misses
        result = shard_grads(*args, **kwargs)
        with open(log, "a") as handle:
            handle.write("%d %d %d %d %d\n" % (
                os.getpid(), lent, *books(buffers),
                buffers.misses - misses))
        return result

    monkeypatch.setattr(parallel, "shard_grads", logged)
    x, y = make_batch()
    with make_trainer(precision, workers=2) as trainer:
        for _ in range(TRAIN_STEPS):
            trainer.train_batch(x, y)
    per_worker = {}
    for line in log.read_text().splitlines():
        pid, base, lent, idle, misses = map(int, line.split())
        per_worker.setdefault(pid, []).append((base, lent, idle, misses))
    assert len(per_worker) == 2
    for history in per_worker.values():
        assert len(history) == TRAIN_STEPS
        assert all(base == 0 for base, *_ in history), history
        assert_flat([(lent, idle) for _, lent, idle, _ in history])
        # Every shard after the first reuses every buffer.
        assert all(misses == 0 for *_, misses in history[1:]), history


def _worker_books(_):
    return books(arena())


def test_forked_workers_start_on_an_empty_arena():
    # The building thread holds a lent record and parks idle buffers; a
    # forked worker must see neither as its own.
    net = SpikingNetwork(SIZES, rng=2)
    x, _ = make_batch()
    outputs, _ = net.run(x)
    arena().release(outputs)
    _, record = net.run(x, record=True)
    lent, idle = books(arena())
    assert lent > 0 and idle > 0
    with WorkerPool(workers=2) as pool:
        assert pool.map(_worker_books, [0, 1]) == [(0, 0), (0, 0)]
    del record   # lent until the workers had forked
