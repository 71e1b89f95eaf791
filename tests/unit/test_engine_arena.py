"""The per-thread arena every engine call borrows, and its weak leases.

Every fused run, stream and backward checks its buffers out of its
thread's :class:`~repro.core.workspace.Workspace`
(:func:`repro.core.workspace.arena`).  The arena keeps at most
``workspace.ARENA_BYTES`` idle (it caches nothing else), serves
concurrent threads from separate arenas and never recycles memory a
caller still holds.  Its leases are weak: results their callers drop
unreleased, and the buffers of a run that raised, are freed like any
array, so nothing stays lent and memory stays flat; the hot loops (a
training step, a server tick) release what they are done with and reuse
every buffer on their next same-shape call.
"""

import queue
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import SpikingNetwork, backward, engine, workspace
from repro.core.workspace import arena
from repro.serve import ModelServer


def _network(kind="adaptive"):
    net = SpikingNetwork((30, 16, 8), neuron_kind=kind, rng=5)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def _spikes(seed, shape=(6, 40, 30)):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < 0.2).astype(np.float64)


def _bits(array):
    array = np.ascontiguousarray(array)
    return array.shape, array.dtype.str, array.tobytes()


def _in_thread(fn):
    """``fn()`` run on a new thread (so with a new arena); its result."""
    result = {}

    def target():
        try:
            result["value"] = fn()
        except BaseException as exc:   # re-raised on the caller's thread
            result["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    if "error" in result:
        raise result["error"]
    return result["value"]


def test_a_run_lends_its_output_only_and_reuses_its_buffers():
    net, x = _network(), _spikes(1)

    def runs():
        buffers = arena()
        first, _ = net.run(x)
        lent, want = buffers.lent_count, _bits(first)
        buffers.release(first)
        misses = buffers.misses
        second, _ = net.run(x)
        return buffers, lent, misses, want, _bits(second)

    buffers, lent, misses, first, second = _in_thread(runs)
    assert lent == 1                                  # the output
    assert misses > 0 and buffers.misses == misses    # all reused
    assert buffers.lent_count == 0                    # second was dropped
    assert first == second


def test_idle_bytes_stay_under_the_cap_after_a_larger_run(monkeypatch):
    cap = 64 << 10
    monkeypatch.setattr(workspace, "ARENA_BYTES", cap)
    net, x = _network(), _spikes(2, (16, 60, 30))
    # One (T, batch, 16) float buffer alone is over the cap.
    assert 16 * 60 * 16 * 8 > cap

    def run():
        outputs, _ = net.run(x)
        buffers = arena()
        return (_bits(outputs), buffers.idle_bytes, buffers.lent_count,
                buffers.max_bytes)

    outputs, idle, lent, max_bytes = _in_thread(run)
    assert max_bytes == cap
    assert idle <= cap and lent == 1
    assert outputs == _bits(net.run(x, record=True)[0])


def test_concurrent_threads_match_serial_runs():
    """More threads than cores, switching often: each thread runs on an
    arena of its own (an arena is single-threaded state), and every
    concurrent run equals its serial run."""
    net = _network()
    inputs = [_spikes(10 + i) for i in range(4)]
    serial = [_bits(net.run(x)[0]) for x in inputs]
    barrier = threading.Barrier(len(inputs))
    results = [[] for _ in inputs]
    arenas = [None] * len(inputs)

    def worker(index):
        arenas[index] = arena()
        barrier.wait()
        for _ in range(6):
            outputs, _ = net.run(inputs[index])
            results[index].append(_bits(outputs))
            arena().release(outputs)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(buffers) for buffers in arenas + [arena()]}) == 5
    for got, want in zip(results, serial):
        assert got == [want] * 6


def _held_bytes(obj, seen=None) -> int:
    """Bytes of every distinct array reachable from ``obj``'s attributes,
    through dicts, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        items = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return 0
    return sum(_held_bytes(item, seen) for item in items)


def test_many_shapes_keep_the_whole_arena_under_the_cap(monkeypatch):
    """Every array the arena holds after runs of many distinct shapes,
    whatever it is kept for, fits in the cap."""
    cap = 16 << 10
    monkeypatch.setattr(workspace, "ARENA_BYTES", cap)
    net = _network()
    shapes = [(batch, steps, 30) for batch in (4, 5, 6, 7)
              for steps in (50, 70, 90, 110)]

    def runs():
        buffers = arena()
        for index, shape in enumerate(shapes):
            net.run(_spikes(20 + index, shape))
        return _held_bytes(buffers), buffers.lent_count

    held, lent = _in_thread(runs)
    assert held <= cap and lent == 0


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
def test_a_returned_output_is_the_callers_own(kind):
    net, x = _network(kind), _spikes(3)
    outputs, _ = net.run(x)
    want = _bits(outputs)
    idle = [buf for stack in arena()._free.values() for buf in stack]
    assert idle and not any(np.shares_memory(outputs, buf) for buf in idle)
    outputs[...] = 7.0
    rerun, _ = net.run(x)
    assert _bits(rerun) == want
    assert not np.shares_memory(rerun, outputs)


class _Injected(RuntimeError):
    pass


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
def test_a_failed_run_leaves_nothing_lent(monkeypatch, kind):
    net, x = _network(kind), _spikes(4)
    want = _bits(net.run(x)[0])
    mask_events = engine._mask_events

    def failing(*args, **kwargs):
        raise _Injected("mid-run")

    def fail_then_run():
        # Fails after layer 0 checked out its buffers, before layer 1.
        monkeypatch.setattr(engine, "_mask_events", failing)
        with pytest.raises(_Injected) as excinfo:
            net.run(x)
        # The traceback holds the failed call's frames, so its leases.
        del excinfo
        lent = arena().lent_count
        monkeypatch.setattr(engine, "_mask_events", mask_events)
        return lent, _bits(net.run(x)[0]), arena().lent_count

    assert _in_thread(fail_then_run) == (0, want, 0)


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
def test_dropped_results_leave_nothing_lent_and_memory_flat(kind):
    """200 recorded runs, backwards and stream chunks whose results are
    dropped unreleased: the leases die with them, so nothing stays lent
    and the traced peak of the last 150 rounds is no higher than that of
    the first 50."""
    net, x = _network(kind), _spikes(5)

    def rounds(count):
        for _ in range(count):
            outputs, record = net.run(x, record=True)
            backward(net, record, np.ones_like(outputs))
            net.run_stream(x[:, :25])

    def run():
        buffers = arena()
        # Warm-up, untraced: lazy imports, the input memo, and the
        # interpreter's object free lists (up to 2000 tuples per size,
        # which tracemalloc charges to the site that first made them).
        rounds(100)
        base = buffers.lent_count
        tracemalloc.start()
        try:
            rounds(50)
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rounds(150)
            second = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return base, buffers.lent_count, first, second

    base, lent, first, second = _in_thread(run)
    assert lent == base == 0
    assert second <= first + (64 << 10), (first, second)


def test_leases_dropped_concurrently_are_all_forgotten():
    """More threads than cores, switching often: one thread keeps
    checking buffers out and releasing them while four others drop the
    records it hands them.  Every dropped lease leaves its owner's books
    (a lost update would leave an entry behind)."""
    net, x = _network(), _spikes(11)
    records = queue.Queue()

    def drop():
        while records.get() is not None:
            pass   # the record's last reference dies here

    def own():
        buffers = arena()
        for _ in range(60):
            _, record = net.run(x, record=True)
            records.put(record)
            del record
            outputs, _ = net.run(x)
            buffers.release(outputs)
        return buffers

    droppers = [threading.Thread(target=drop) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in droppers:
            thread.start()
        owner = _in_thread(own)
        for _ in droppers:
            records.put(None)
        for thread in droppers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in droppers)
    assert owner.lent_count == 0


def test_a_second_same_shape_server_tick_reuses_every_buffer():
    net = _network()
    chunks = [_spikes(6 + i, (1, 10, 30))[0] for i in range(3)]

    def ticks():
        buffers = arena()
        server = ModelServer(net, max_batch=3, max_wait_ms=1.0)
        sessions = [server.open_session(now=0.0) for _ in chunks]
        books = []
        for tick in range(2):
            for sid, chunk in zip(sessions, chunks):
                server.submit(sid, chunk, now=float(tick))
            misses = buffers.misses
            server.flush(now=float(tick))
            books.append((buffers.misses - misses, buffers.lent_count))
        return books

    (first_misses, _), second = _in_thread(ticks)
    assert first_misses > 0
    assert second == (0, 0)


def test_weight_gradients_are_the_callers_own():
    """A weight gradient never views an arena buffer: with a side of 1,
    a transposed product is already contiguous, and a view of it would
    be overwritten by the next backward of that shape."""
    net = SpikingNetwork((3, 1, 1, 2), rng=7)
    for layer in net.layers:
        layer.weight *= 5.0

    def backwards():
        grads = []
        for seed in (8, 9):
            x = _spikes(seed, (2, 12, 3))
            outputs, record = net.run(x, record=True)
            grads.append(backward(net, record,
                                  np.ones_like(outputs)).weight_grads)
        return grads

    first, _ = _in_thread(backwards)
    x = _spikes(8, (2, 12, 3))
    outputs, record = net.run(x, record=True)
    want = backward(net, record, np.ones_like(outputs)).weight_grads
    assert [_bits(g) for g in first] == [_bits(g) for g in want]
