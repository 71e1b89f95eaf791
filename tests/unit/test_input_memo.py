"""The engine's memo of recent caller inputs' events.

A repeated batch-major input (a Fig. 8 evaluation set run once per
programming draw, whole or in ``run_in_batches`` chunks) reuses its
layer-0 CSR and final filter state ``layer.k``.  The memo is checked by
content, so mutating the very same array between runs must give bitwise
what a fresh build gives: every rerun here is compared with a run made
from an empty memo.
"""

import numpy as np
import pytest

from repro.core import SpikingNetwork, backward, engine, run_in_batches
from repro.core.neurons import NeuronParameters
from repro.common.rng import RandomState

SHAPE = (4, 20, 30)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(engine, "_input_memo", ())


def _network(tau=None):
    params = None if tau is None else NeuronParameters(tau=tau)
    net = SpikingNetwork((30, 16, 8), params=params, rng=3)
    for layer in net.layers:
        layer.weight *= 6.0
    return net


def _spikes(seed, shape=SHAPE, density=0.2):
    return (RandomState(seed).random(shape) < density).astype(np.float64)


def _bits(array) -> tuple:
    array = np.ascontiguousarray(array)
    return array.shape, array.dtype.str, array.tobytes()


def _snapshot(net, x, precision=None) -> list:
    """Bits of the outputs, the record, every ``layer.k`` and the exact
    and truncated gradients of one recorded run over ``x``."""
    outputs, record = net.run(x, record=True, precision=precision)
    bits = [_bits(outputs)]
    for layer, rec in zip(net.layers, record.layers):
        bits += [_bits(rec.v), _bits(rec.spikes), _bits(rec.k),
                 _bits(layer.k)]
    grad = RandomState(9).normal(size=outputs.shape).astype(outputs.dtype)
    for mode in ("exact", "truncated"):
        result = backward(net, record, grad, mode=mode)
        bits += [_bits(w) for w in result.weight_grads]
    return bits


def _fresh(net, x, precision=None) -> list:
    """The snapshot of a run that finds the memo empty."""
    engine._input_memo = ()
    return _snapshot(net, x, precision)


def _first_event(x):
    return np.unravel_index(np.flatnonzero(x)[0], x.shape)


def _first_silence(x):
    return np.unravel_index(np.flatnonzero(x == 0)[0], x.shape)


def _remove_spike(x):
    x[_first_event(x)] = 0.0


def _move_spike(x):
    event, silence = _first_event(x), _first_silence(x)
    x[silence] = 1.0
    x[event] = 0.0


def _change_value(x):
    x[_first_event(x)] = 2.0


def _negative_zero_at_silence(x):
    x[_first_silence(x)] = -0.0


def _negative_zero_at_event(x):
    x[_first_event(x)] = -0.0


def _nan_at_silence(x):
    x[_first_silence(x)] = np.nan


def _nan_at_event(x):
    x[_first_event(x)] = np.nan


MUTATIONS = {
    # name: (mutation, whether the memo may serve the rerun)
    "remove a spike": (_remove_spike, False),
    "move a spike (same count)": (_move_spike, False),
    "change a value at an event": (_change_value, False),
    "-0.0 where there was no event": (_negative_zero_at_silence, True),
    "-0.0 at an event": (_negative_zero_at_event, False),
    "NaN where there was no event": (_nan_at_silence, False),
    "NaN at an event": (_nan_at_event, False),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_in_place_mutation_reruns_bitwise_as_a_fresh_build(name):
    mutate, may_hit = MUTATIONS[name]
    net = _network()
    x = _spikes(1)
    before = _snapshot(net, x)
    assert _snapshot(net, x) == before          # a repeat hits
    slot = engine._input_memo[-1]
    mutate(x)
    with np.errstate(invalid="ignore"):
        rerun = _snapshot(net, x)
        assert (engine._input_memo[-1] is slot) == may_hit
        assert rerun == _fresh(net, x)


def test_a_repeat_is_served_by_the_memo():
    net = _network()
    x = _spikes(1)
    net.run(x)
    (slot,) = engine._input_memo
    assert slot.shape == x.shape and slot.k[0] == net.layers[0].alpha
    k = net.layers[0].k
    k[...] = 123.0                   # handed out as a copy
    net.run(x)
    assert engine._input_memo == (slot,)
    assert not np.any(net.layers[0].k == 123.0)
    assert np.array_equal(net.layers[0].k, slot.k[1])


def test_a_chunked_evaluation_hits_every_chunk():
    """The next draw over a ``run_in_batches`` evaluation set finds
    every chunk remembered, in the order the first pass left them."""
    net = _network()
    x = _spikes(1, (10, 20, 30))
    first = run_in_batches(net, x, 4)          # chunks of 4, 4 and 2
    entries = engine._input_memo
    assert [entry.shape[0] for entry in entries] == [4, 4, 2]
    second = run_in_batches(net, x, 4)
    assert engine._input_memo == entries       # no entry built
    assert _bits(second) == _bits(first)


def _same_size_inputs(count):
    """Inputs with the same events, moved: equal memo entry sizes."""
    x = _spikes(1)
    return [np.roll(x, shift, axis=2) for shift in range(count)]


def test_the_least_recently_used_entry_goes_first(monkeypatch):
    net = _network()
    a, b, c = _same_size_inputs(3)
    net.run(a)
    monkeypatch.setattr(engine, "_MEMO_BYTES",
                        2 * engine._input_memo[0].nbytes)
    net.run(b)
    slot_a, slot_b = engine._input_memo
    net.run(a)                       # a hit makes ``a`` the most recent
    assert engine._input_memo == (slot_b, slot_a)
    net.run(c)                       # over the budget: ``b`` goes
    assert engine._input_memo[0] is slot_a
    assert len(engine._input_memo) == 2


def test_the_entry_count_is_bounded(monkeypatch):
    monkeypatch.setattr(engine, "_MEMO_ENTRIES", 2)
    net = _network()
    for x in _same_size_inputs(3):
        net.run(x)
    assert [entry.shape for entry in engine._input_memo] == [SHAPE, SHAPE]


def test_an_input_over_the_budget_is_not_remembered(monkeypatch):
    net = _network()
    small = _spikes(1)
    net.run(small)
    (slot,) = engine._input_memo
    monkeypatch.setattr(engine, "_MEMO_BYTES", slot.nbytes)
    big = _spikes(2, (8, 20, 30))
    before = _snapshot(net, big)
    assert engine._input_memo == (slot,)
    assert _snapshot(net, big) == before


def test_a_reshape_in_place_misses():
    """Same memory, same ``(batch*T, n)`` rows, another ``T``: the final
    filter state differs, so the memo must not serve it."""
    net = _network()
    x = _spikes(1, (4, 20, 30))
    net.run(x)
    x.shape = (8, 10, 30)
    rerun = _snapshot(net, x)
    assert engine._input_memo[-1].shape == (8, 10, 30)
    assert rerun == _fresh(net, x)


def test_another_dtype_misses():
    net = _network()
    x = _spikes(1)
    net.run(x)
    (slot,) = engine._input_memo
    rerun = _snapshot(net, x, precision="float32")
    assert engine._input_memo[-1] is not slot
    assert engine._input_memo[-1].csr.dtype == np.float32
    assert rerun == _fresh(net, x, precision="float32")


def test_another_filter_decay_recomputes_k():
    """The events are shared; ``layer.k`` is remembered per decay."""
    x = _spikes(1)
    slow, fast = _network(), _network(tau=2.0)
    assert slow.layers[0].alpha != fast.layers[0].alpha
    slow.run(x)
    (slot,) = engine._input_memo
    rerun = _snapshot(fast, x)
    assert engine._input_memo == (slot,)
    assert slot.k[0] == fast.layers[0].alpha
    assert rerun == _fresh(fast, x)


def test_stream_chunks_mutated_in_place_match_fresh_chunks():
    net = _network()
    chunk = _spikes(1, (4, 5, 30))
    replay = []
    state = None
    for seed in range(4):
        chunk[...] = _spikes(10 + seed, chunk.shape)
        out, state = net.run_stream(chunk, state)
        replay.append(out.copy())
    fresh_state = None
    for seed, expected in enumerate(replay):
        out, fresh_state = net.run_stream(_spikes(10 + seed, chunk.shape),
                                          fresh_state)
        assert _bits(out) == _bits(expected)


def test_remembered_events_are_read_only():
    net = _network()
    net.run(_spikes(1))
    (slot,) = engine._input_memo
    for array in (slot.idx, slot.csr.data, slot.csr.indices,
                  slot.csr.indptr):
        assert not array.flags.writeable


def test_a_run_uses_the_filter_state_it_checked():
    """Another thread may write an entry's ``k`` (for another decay)
    between this run's check and its use; the run must hand out the
    state it checked.  The write is made deterministic here: the first
    read of ``k`` lets the other decay's state in right after it."""
    x = _spikes(1)
    slow, fast = _network(), _network(tau=2.0)
    fast.run(x)
    (slot,) = engine._input_memo
    other = slot.k
    slow.run(x)
    want = _bits(slow.layers[0].k)
    assert slot.k[0] == slow.layers[0].alpha != other[0]
    stored = engine._InputMemo.k

    class WrittenAfterTheFirstRead(engine._InputMemo):
        __slots__ = ()
        reads = 0

        @property
        def k(self):
            entry = stored.__get__(self)
            WrittenAfterTheFirstRead.reads += 1
            if WrittenAfterTheFirstRead.reads == 1:
                stored.__set__(self, other)
            return entry

        @k.setter
        def k(self, value):
            stored.__set__(self, value)

    slot.__class__ = WrittenAfterTheFirstRead
    slow.run(x)
    assert WrittenAfterTheFirstRead.reads >= 1
    assert _bits(slow.layers[0].k) == want
