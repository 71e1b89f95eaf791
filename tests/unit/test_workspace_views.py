"""Workspace bookkeeping under the time-major engine.

Engine buffers are time-major ``(T, batch, n)`` and leave the engine as
``(batch, T, n)`` ``swapaxes`` views (outputs, record tensors), which the
trainer, pool workers and servers hand back to their workspace.  A
release must resolve a view to the buffer behind it; otherwise the
buffer stays lent forever and every step allocates afresh.
"""

import os

import numpy as np
import pytest

from repro.core import (CrossEntropyRateLoss, SpikingNetwork, Trainer,
                        TrainerConfig)
from repro.runtime import Workspace

SIZES = (30, 16, 12, 4)
BATCH, STEPS = 8, 20
TRAIN_STEPS = 20


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
    ws = Workspace()
    outputs, _ = net.run(x, workspace=ws)
    assert outputs.shape == (BATCH, STEPS, SIZES[-1])
    assert outputs.base is not None and ws.lent_count == 1
    ws.release(outputs)
    assert ws.lent_count == 0


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


def books(ws):
    """What a workspace holds between steps: lent buffers, parked bytes."""
    return ws.lent_count, ws.idle_bytes


def assert_flat(history):
    """Nothing stays lent, and the parked bytes never move after the
    first step sized the arena."""
    assert history, "no workspace was used"
    assert all(lent == 0 for lent, _ in history), history
    assert len({idle for _, idle in history}) == 1, history


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_serial_training_keeps_the_workspace_flat(precision):
    x, y = make_batch()
    with make_trainer(precision) as trainer:
        history = []
        for _ in range(TRAIN_STEPS):
            trainer.train_batch(x, y)
            history.append(books(trainer._workspace))
    assert_flat(history)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_pool_workers_keep_their_workspaces_flat(precision, monkeypatch,
                                                 tmp_path):
    # Pool workers fork after the patch, so they inherit it and log their
    # own workspace after every shard.
    import repro.runtime.parallel as parallel

    log = tmp_path / "books.txt"
    shard_grads = parallel.shard_grads

    def logged(*args, ws=None, **kwargs):
        result = shard_grads(*args, ws=ws, **kwargs)
        with open(log, "a") as handle:
            handle.write("%d %d %d\n" % (os.getpid(), *books(ws)))
        return result

    monkeypatch.setattr(parallel, "shard_grads", logged)
    x, y = make_batch()
    with make_trainer(precision, workers=2) as trainer:
        for _ in range(TRAIN_STEPS):
            trainer.train_batch(x, y)
    per_worker = {}
    for line in log.read_text().splitlines():
        pid, lent, idle = map(int, line.split())
        per_worker.setdefault(pid, []).append((lent, idle))
    assert len(per_worker) == 2
    for history in per_worker.values():
        assert len(history) == TRAIN_STEPS
        assert_flat(history)
