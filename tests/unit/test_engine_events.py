"""The events each layer's crossbar product reads.

Every event list is time-major: ``(t, b)`` rows.  A hidden layer's events
come from the boolean threshold comparison its input layer's kernel
returned, and the network input's events are listed time-major straight
from the caller's batch-major memory.  Both must be exactly the CSR that
:func:`repro.core.engine._spike_csr` builds from a contiguous time-major
copy of the float spike train: same ``data``, ``indices`` and ``indptr``
bits, for either neuron kind and precision, one to three layers, one-shot
runs (recorded or through the arena, memo miss or hit) and chunked
streams with ragged ``lengths``.
"""

import numpy as np
import pytest

from repro.core import SpikingNetwork, engine
from repro.core.engine import _mask_events, _spike_csr

N_IN = 30
WIDTHS = (16, 12, 8)
BATCH, STEPS = 5, 24


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(engine, "_input_memo", ())


def _network(kind, depth):
    net = SpikingNetwork((N_IN,) + WIDTHS[:depth], neuron_kind=kind, rng=4)
    for layer in net.layers:
        layer.weight *= 5.0      # hidden layers spike, but not everywhere
    return net


def _spikes(seed, shape=(BATCH, STEPS, N_IN), density=0.2):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.float64)


def assert_same_events(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.fixture
def checked_layers(monkeypatch):
    """Wrap the per-layer step: check the events it is handed against a
    float rebuild of its (time-major) input, and the mask it returns
    against its float spikes.  Returns, per call, whether the input was
    time-major memory and the output's spike rate."""
    layer_chunk = engine._layer_chunk
    calls = []

    def checked(layer, xs, st, events, *args, **kwargs):
        n_in = xs.shape[2]
        assert_same_events(events, _spike_csr(
            np.ascontiguousarray(xs).reshape(-1, n_in)))
        spikes, v, mask = layer_chunk(layer, xs, st, events, *args, **kwargs)
        assert mask.dtype == np.bool_ and mask.shape == spikes.shape
        assert np.array_equal(mask, spikes != 0)
        assert_same_events(
            _mask_events(mask, spikes.dtype),
            _spike_csr(spikes.reshape(-1, spikes.shape[2])))
        calls.append((xs.flags.c_contiguous, float(mask.mean())))
        return spikes, v, mask

    monkeypatch.setattr(engine, "_layer_chunk", checked)
    return calls


KINDS = ["adaptive", "hard_reset"]
PRECISIONS = ["float64", "float32"]
DEPTHS = [1, 2, 3]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_one_shot_runs_hand_on_the_events_of_their_spikes(
        checked_layers, kind, precision, depth):
    net = _network(kind, depth)
    x = _spikes(1)
    net.run(x, precision=precision)              # arena, memo miss
    net.run(x, precision=precision)              # arena, memo hit
    _, record = net.run(x, record=True, precision=precision)
    # Layer 0 reads the caller's batch-major memory; hidden layers read
    # time-major engine buffers.
    layouts, rates = zip(*checked_layers)
    assert list(layouts) == ([False] + [True] * (depth - 1)) * 3
    assert all(0 < rate < 1 for rate in rates)
    # The events a record keeps for the backward are the same lists.
    for index, events in enumerate(record._input_events):
        layer_input = record.layer_input(index).swapaxes(0, 1)
        assert_same_events(events, _spike_csr(np.ascontiguousarray(
            layer_input).reshape(-1, layer_input.shape[2])))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_chunked_ragged_streams_hand_on_the_events_of_their_spikes(
        checked_layers, kind, precision, depth):
    net = _network(kind, depth)
    x = _spikes(2)
    state = None
    for start, stop, lengths in ((0, 7, None), (7, 16, [9, 3, 9, 1, 6]),
                                 (16, 24, [8, 8, 2, 8, 5])):
        _, state = net.run_stream(x[:, start:stop], state,
                                  precision=precision, lengths=lengths)
    assert len(checked_layers) == 3 * depth
    assert all(0 < rate < 1 for _, rate in checked_layers)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_time_major_input_events_keep_their_values(precision):
    """Inputs that are event counts, not just ones: every value lands
    at its (t, b) row, cast to the run's precision on the way."""
    rng = np.random.default_rng(3)
    x = _spikes(4) * rng.integers(1, 4, size=(BATCH, STEPS, N_IN))
    xs = x.astype(precision).swapaxes(0, 1)
    want = _spike_csr(np.ascontiguousarray(xs).reshape(-1, N_IN))
    for remember in (False, True, True):        # fresh, miss, hit
        assert_same_events(engine._spike_events(x.swapaxes(0, 1),
                                                dtype=precision,
                                                remember=remember), want)
    assert len(engine._input_memo) == 1
