"""Self-healing WorkerPool tests under the seeded fault plane.

The recovery contract (docs/robustness.md): a transport-level failure —
a worker that crashed, hangs, or violates the reply protocol — is
healed by the pool (respawn, re-stage, requeue the in-flight shards)
and the dispatch's results are bitwise-identical to a fault-free
pool's.  A :class:`WorkerError` (the *task* raised) stays fail-fast and
leaves the pool usable; transport healing is bounded by
``WorkerPool._MAX_HEAL_ROUNDS`` per dispatch, after which the pool
closes itself and raises :class:`PoolTransportError`.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.common import faults
from repro.common.faults import FaultPlan, FaultRule
from repro.core import CrossEntropyRateLoss, SpikingNetwork
from repro.core.calibration import calibrate_firing
from repro.core.trainer import run_in_batches
from repro.hardware.mapped_network import accuracy_under_variation
from repro.runtime import WorkerPool, data_parallel_grads, shard_slices
from repro.runtime.pool import PoolTransportError, WorkerError


def make_task(n=48, steps=20, channels=10, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, steps, channels)) < 0.2).astype(np.float64)
    y = np.arange(n) % classes
    return x, y


def make_net(sizes=(10, 14, 3), seed=0, x=None):
    net = SpikingNetwork(sizes, rng=seed)
    if x is not None:
        calibrate_firing(net, x[:16], target_rate=0.15)
    else:
        for layer in net.layers:
            layer.weight *= 6.0
    return net


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(WorkerPool, "_BACKOFF_S", 0.01)


def _double(value):
    return value * 2


def _ignore_sigterm_then_sleep(seconds):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(seconds)
    return seconds


def faulty_pool(rules, seed=7, **kwargs):
    """A pool whose workers run under a seeded fault plan.

    The plan is snapshotted into the worker spec at construction, so it
    only needs to be active while the pool is built.
    """
    with faults.active(FaultPlan(rules, seed=seed)):
        return WorkerPool(**kwargs)


#: The package source, for subprocesses run from any working directory.
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestTransportHealing:
    def test_crash_heals_run_sharded_bitwise(self):
        x, _ = make_task()
        net = make_net(x=x)
        serial = run_in_batches(net, x, batch_size=16)
        rule = FaultRule("pool.worker.crash", nth=(1,),
                         where={"worker": 0, "generation": 0})
        pool = faulty_pool((rule,), network=net, workers=2)
        try:
            outputs = pool.run_sharded(x, batch_size=16).copy()
            assert pool.stats["restarts"] == 1
            assert pool.stats["retries"] >= 1
        finally:
            pool.close()
        np.testing.assert_array_equal(outputs, serial)

    def test_hang_heals_under_per_call_timeout(self):
        rule = FaultRule("pool.worker.hang", nth=(1,),
                         where={"worker": 0, "generation": 0}, payload=60.0)
        pool = faulty_pool((rule,), workers=2)
        try:
            assert pool.map(_double, [1, 2, 3, 4], timeout=1.0) \
                == [2, 4, 6, 8]
            assert pool.stats["restarts"] == 1
        finally:
            pool.close()

    def test_corrupt_reply_heals_grad_shards_bitwise(self):
        x, y = make_task()
        net = make_net(x=x)
        loss = CrossEntropyRateLoss()
        slices = shard_slices(len(x), 2)

        def snapshot(shards):
            # Gradients are views into the pool's shared-memory arena;
            # copy them out so they survive close().
            return [(lv, n, [g.copy() for g in grads])
                    for lv, n, grads in shards]

        with WorkerPool(net, workers=2, loss=loss) as clean:
            reference = snapshot(clean.grad_shards(x, y, slices))
        rule = FaultRule("pool.reply.corrupt", nth=(1,),
                         where={"worker": 0, "generation": 0})
        pool = faulty_pool((rule,), network=net, workers=2, loss=loss)
        try:
            shards = snapshot(pool.grad_shards(x, y, slices))
            assert pool.stats["restarts"] == 1
        finally:
            pool.close()
        assert len(shards) == len(reference)
        for (lv, n, grads), (rlv, rn, rgrads) in zip(shards, reference):
            assert lv == rlv and n == rn
            for g, r in zip(grads, rgrads):
                np.testing.assert_array_equal(g, r)

    def test_retries_exhausted_closes_pool_and_raises(self, monkeypatch):
        # Unscoped nth=(1,): every respawned generation gets a fresh
        # plan copy and crashes on its first command too, so healing
        # can never converge and the heal-round bound must trip.
        monkeypatch.setattr(WorkerPool, "_MAX_HEAL_ROUNDS", 2)
        rule = FaultRule("pool.worker.crash", nth=(1,))
        pool = faulty_pool((rule,), workers=1)
        with pytest.raises(PoolTransportError):
            pool.map(_double, [1, 2])
        assert pool.stats["restarts"] == 2
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [1])

    def test_backoff_stays_capped_after_many_lifetime_restarts(self):
        # The backoff doubles per lifetime restart; past ~1000 of them an
        # unclamped 2.0 ** n overflows inside the heal itself.
        with WorkerPool(workers=1) as pool:
            pool._c_restarts.inc(5000)
            pool._procs[0].kill()
            pool._procs[0].join()
            started = time.monotonic()
            assert pool.map(_double, [1, 2]) == [2, 4]
            assert time.monotonic() - started < 30.0
            assert pool.stats["restarts"] == 5001


def pooled_call(kind, net, x, y, pool=None, bad=False):
    """One forward, gradient or Fig. 8 call (serial when ``pool`` is
    None); ``bad`` makes it raise inside the workers."""
    if kind == "forward":
        inputs = np.zeros(x.shape[:2] + (x.shape[2] + 2,)) if bad else x
        return run_in_batches(net, inputs, 16, pool=pool)
    if kind == "grad":
        labels = y + 100 if bad else y   # out of range: the loss raises
        loss_value, grads = data_parallel_grads(
            net, CrossEntropyRateLoss(), x, labels, n_shards=2, pool=pool)
        return [np.float64(loss_value)] + grads
    return np.array(accuracy_under_variation(
        net, x, y, bits=0 if bad else 4, variation=0.3, n_seeds=2, rng=7,
        batch_size=16, pool=pool))


class TestWorkerErrorStaysFailFast:
    @pytest.mark.parametrize("kind", ["forward", "grad", "draw"])
    def test_worker_error_mid_run_sharded_leaves_pool_usable(self, kind):
        # Regression pin: a *task* failure inside a worker (a chunk whose
        # channel count does not match the network, out-of-range labels,
        # a one-level device) must raise WorkerError without healing,
        # desyncing, or poisoning the pool — the very next call is
        # bitwise-correct.
        x, y = make_task()
        net = make_net(x=x)
        serial = pooled_call(kind, net, x, y)
        with WorkerPool(net, workers=2, loss=CrossEntropyRateLoss()) as pool:
            # Both workers get a failing command; which one's error
            # surfaces first is a race, so match either.
            with pytest.raises(WorkerError, match=r"worker \d+ raised"):
                pooled_call(kind, net, x, y, pool=pool, bad=True)
            assert pool.stats["restarts"] == 0
            for got, want in zip(pooled_call(kind, net, x, y, pool=pool),
                                 serial, strict=True):
                np.testing.assert_array_equal(got, want)


class TestCloseEscalation:
    def test_close_kills_sigterm_ignoring_worker(self):
        pool = WorkerPool(workers=1)
        errors = []

        def stuck_dispatch():
            try:
                pool.map(_ignore_sigterm_then_sleep, [60.0])
            except Exception as exc:   # the pool closes under us
                errors.append(exc)

        thread = threading.Thread(target=stuck_dispatch, daemon=True)
        thread.start()
        time.sleep(0.5)   # worker is now sleeping with SIGTERM ignored
        procs = list(pool._procs)
        assert any(proc.is_alive() for proc in procs)
        pool._CLOSE_GRACE_S = 0.2
        pool.close()
        for proc in procs:
            assert not proc.is_alive()

    def test_heal_kills_hung_sigterm_ignoring_worker(self, monkeypatch):
        # The per-call timeout declares the worker hung; the heal must
        # escalate past the ignored SIGTERM to kill, respawn, and (as
        # the replacement hangs on the requeued task too) trip the
        # one-round bound, close, and leave no worker process behind.
        monkeypatch.setattr(WorkerPool, "_MAX_HEAL_ROUNDS", 1)
        monkeypatch.setattr(WorkerPool, "_CLOSE_GRACE_S", 0.2)
        pool = WorkerPool(workers=1)
        first = pool._procs[0]
        with pytest.raises(PoolTransportError):
            pool.map(_ignore_sigterm_then_sleep, [60.0], timeout=1.0)
        assert not first.is_alive()
        assert pool.stats["restarts"] == 1
        assert not any(proc.is_alive() for proc in pool._procs)

    def test_atexit_after_crash_heal_is_quiet(self):
        # A pool that healed a crashed worker mid-life and is then
        # abandoned (no close()) must still shut down silently at
        # interpreter exit: no resource_tracker "leaked shared_memory"
        # warnings, no worker tracebacks on stderr.
        import os
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent("""
            from repro import WorkerPool
            from repro.common import faults

            faults.install(faults.FaultPlan((
                faults.FaultRule("pool.worker.crash", nth=(1,),
                                 where={"worker": 0, "generation": 0}),
            ), seed=7))
            pool = WorkerPool(workers=2)
            assert pool.map(abs, [-1, 2, -3, 4]) == [1, 2, 3, 4]
            print("healed", pool.stats["restarts"])
            # exit without close(): the atexit hook owns the cleanup
        """)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert result.returncode == 0, result.stderr
        assert "healed 1" in result.stdout
        assert result.stderr.strip() == "", result.stderr


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>")
class TestMasterDeath:
    def test_workers_exit_when_the_master_is_killed(self, tmp_path):
        """A SIGKILLed master leaves no worker behind: each worker sees
        EOF on its pipe and exits, so none holds the caller's stdout
        open."""
        code = textwrap.dedent("""
            import os, signal
            from repro.common.benchcfg import bench_network
            from repro.runtime import WorkerPool

            pool = WorkerPool(bench_network((8, 4, 2)), workers=2)
            print(*(proc.pid for proc in pool._procs), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            result = subprocess.run(
                [sys.executable, "-c", code], stdout=stdout, stderr=stderr,
                timeout=120, env={**os.environ, "PYTHONPATH": SRC})
        assert result.returncode == -signal.SIGKILL, err.read_text()
        pids = [int(pid) for pid in out.read_text().split()]
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 5.0
            alive = pids
            while alive and time.monotonic() < deadline:
                time.sleep(0.05)
                alive = [pid for pid in pids if _running(pid)]
            assert not alive, f"workers {alive} outlived their master"
        finally:
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
