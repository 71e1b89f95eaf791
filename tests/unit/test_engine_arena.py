"""The per-thread scratch arena of one-shot runs.

A ``fused_run`` given no workspace and ``record=False`` checks its
temporaries out of its thread's :class:`~repro.runtime.workspace.
Workspace` (``engine._arena()``).  The arena keeps at most
``engine._ARENA_BYTES`` in all (idle buffers; it caches nothing else),
never lends memory a caller can see, serves
concurrent threads from separate arenas, and gets every lease back when a
run raises.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import SpikingNetwork, engine


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


def test_a_run_lends_nothing_and_reuses_its_buffers():
    net, x = _network(), _spikes(1)

    def runs():
        arena = engine._arena()
        first, _ = net.run(x)
        misses = arena.misses
        second, _ = net.run(x)
        return arena, misses, first, second

    arena, misses, first, second = _in_thread(runs)
    assert misses > 0 and arena.misses == misses    # all reused
    assert arena.lent_count == 0
    assert _bits(first) == _bits(second)


def test_idle_bytes_stay_under_the_cap_after_a_larger_run(monkeypatch):
    cap = 64 << 10
    monkeypatch.setattr(engine, "_ARENA_BYTES", cap)
    net, x = _network(), _spikes(2, (16, 60, 30))
    # One (T, batch, 16) float buffer alone is over the cap.
    assert 16 * 60 * 16 * 8 > cap

    def run():
        outputs, _ = net.run(x)
        arena = engine._arena()
        return outputs, arena.idle_bytes, arena.lent_count, arena.max_bytes

    outputs, idle, lent, max_bytes = _in_thread(run)
    assert max_bytes == cap
    assert idle <= cap and lent == 0
    assert _bits(outputs) == _bits(net.run(x, record=True)[0])


def test_concurrent_threads_match_serial_runs():
    """More threads than cores, switching often: each thread runs on an
    arena of its own (a workspace is single-threaded state), and every
    concurrent run equals its serial run."""
    net = _network()
    inputs = [_spikes(10 + i) for i in range(4)]
    serial = [_bits(net.run(x)[0]) for x in inputs]
    barrier = threading.Barrier(len(inputs))
    results = [[] for _ in inputs]
    arenas = [None] * len(inputs)

    def worker(index):
        arenas[index] = engine._arena()
        barrier.wait()
        for _ in range(6):
            results[index].append(_bits(net.run(inputs[index])[0]))

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
    assert len({id(arena) for arena in arenas + [engine._arena()]}) == 5
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
    monkeypatch.setattr(engine, "_ARENA_BYTES", cap)
    net = _network()
    shapes = [(batch, steps, 30) for batch in (4, 5, 6, 7)
              for steps in (50, 70, 90, 110)]

    def runs():
        arena = engine._arena()
        for index, shape in enumerate(shapes):
            net.run(_spikes(20 + index, shape))
        return _held_bytes(arena), arena.lent_count

    held, lent = _in_thread(runs)
    assert held <= cap and lent == 0


@pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
def test_a_returned_output_is_the_callers_own(kind):
    net, x = _network(kind), _spikes(3)
    outputs, _ = net.run(x)
    want = _bits(outputs)
    arena = engine._arena()
    idle = [buf for stack in arena._free.values() for buf in stack]
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

    # Fails after layer 0 checked out its buffers, before layer 1 runs.
    monkeypatch.setattr(engine, "_mask_events", failing)
    with pytest.raises(_Injected):
        net.run(x)
    assert engine._arena().lent_count == 0
    monkeypatch.setattr(engine, "_mask_events", mask_events)
    assert _bits(net.run(x)[0]) == want
    assert engine._arena().lent_count == 0
