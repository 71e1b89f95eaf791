"""Streaming equivalence: chunked ``run_stream`` == one-shot ``run``.

The load-bearing guarantee of the serving layer: a T-step sequence fed in
chunks of any sizes, at either precision, produces *bitwise-identical*
output spikes to the one-shot fused run, and a padded heterogeneous batch
leaves every stream exactly where its own data ended.  Every stream runs
the fused engine; the step engine is a one-shot reference only, and the
chunked stream is held to its bits as well.

The guarantee rests on the CSR spike product computing output rows
independently (dense GEMM does not: BLAS picks
different summation splits for different row counts).  Every fused run,
one-shot or chunked, takes that product whatever the input's size or
density, so a sample also gets the same bits alone as inside a batch.
"""

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.core import SpikingNetwork, StreamState, exp_scan

SIZES = (48, 44, 40)
BATCH, STEPS = 8, 48
DENSITY = 0.08


def make_net(kind="adaptive", seed=1, sizes=SIZES):
    net = SpikingNetwork(sizes, neuron_kind=kind, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_inputs(batch=BATCH, steps=STEPS, seed=0, density=DENSITY,
                channels=SIZES[0]):
    rng = np.random.default_rng(seed)
    return (rng.random((batch, steps, channels)) < density).astype(np.float64)


def stream_in_chunks(net, x, chunk, precision):
    state = None
    outs = []
    for start in range(0, x.shape[1], chunk):
        out, state = net.run_stream(x[:, start:start + chunk], state,
                                    precision=precision)
        outs.append(out)
    return np.concatenate(outs, axis=1), state


class TestChunkedEquivalence:
    """``engine`` names the one-shot run the stream is held to: the fused
    kernel the stream itself runs, or the independent step-wise oracle."""

    @pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
    @pytest.mark.parametrize("engine", ["fused", "step"])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("chunk, batch, density", [
        pytest.param(chunk, batch, density, id=f"{chunk}{suffix}")
        for batch, density, suffix in [(BATCH, DENSITY, ""),
                                       (1, DENSITY, "-batch1"),
                                       (BATCH, 0.5, "-dense")]
        for chunk in (1, 7, STEPS)])
    def test_chunked_equals_one_shot(self, kind, engine, precision, chunk,
                                     batch, density):
        net = make_net(kind)
        x = make_inputs(batch=batch, density=density)
        full, _ = net.run(x, engine=engine, precision=precision)
        got, state = stream_in_chunks(net, x, chunk, precision)
        assert got.dtype == full.dtype
        assert np.array_equal(full, got)
        assert state.steps.tolist() == [STEPS] * batch

    @pytest.mark.parametrize("engine", ["fused", "step"])
    def test_irregular_chunk_boundaries(self, engine):
        net = make_net()
        x = make_inputs()
        full, _ = net.run(x, engine=engine)
        state = None
        outs = []
        bounds = [0, 1, 6, 7, 20, 43, STEPS]
        for a, b in zip(bounds[:-1], bounds[1:]):
            out, state = net.run_stream(x[:, a:b], state)
            outs.append(out)
        assert np.array_equal(full, np.concatenate(outs, axis=1))

    def test_empty_chunk_is_a_noop(self):
        net = make_net()
        x = make_inputs()
        state = None
        out, state = net.run_stream(x[:, :7], state)
        before = state.clone()
        empty, state = net.run_stream(x[:, :0], state)
        assert empty.shape == (BATCH, 0, SIZES[-1])
        for a, b in zip(state.layers, before.layers):
            for key in a:
                assert np.array_equal(a[key], b[key])
        assert state.steps.tolist() == before.steps.tolist()


class TestBatchRowIndependence:
    """A one-shot fused run gives a sample the same spikes and membrane
    values alone as inside a batch: each CSR output row is a sum over that
    row's own spike events, whatever the batch size."""

    @pytest.mark.parametrize("sizes", [SIZES, (128, 64, 10),
                                       (700, 128, 128, 20)],
                             ids=lambda sizes: "-".join(map(str, sizes)))
    @pytest.mark.parametrize("kind", ["adaptive", "hard_reset"])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_sample_alone_equals_sample_in_batch(self, precision, kind,
                                                 sizes):
        net = make_net(kind, sizes=sizes)
        x = make_inputs(channels=sizes[0])
        _, batched = net.run(x, record=True, precision=precision)
        for i in range(BATCH):
            _, alone = net.run(x[i:i + 1], record=True, precision=precision)
            for index, (solo, rec) in enumerate(zip(alone.layers,
                                                    batched.layers)):
                assert np.array_equal(solo.spikes[0], rec.spikes[i]), (
                    i, index)
                assert np.array_equal(solo.v[0], rec.v[i]), (i, index)


class TestPaddedHeterogeneousBatch:
    """The micro-batcher primitive: gathered rows + per-row lengths."""

    def test_padded_batch_matches_solo_streams(self):
        net = make_net()
        rng = np.random.default_rng(3)
        lengths = np.array([5, 17, STEPS, 1, 29])
        count = len(lengths)
        data = [(rng.random((1, STEPS, SIZES[0])) < DENSITY)
                .astype(np.float64) for _ in range(count)]
        xs = np.zeros((count, STEPS, SIZES[0]))
        for i, length in enumerate(lengths):
            xs[i, :length] = data[i][0, :length]
        batched = StreamState.for_network(net, count)
        out, _ = net.run_stream(xs, batched, lengths=lengths)
        follow = (rng.random((1, 6, SIZES[0])) < DENSITY).astype(np.float64)
        for i, length in enumerate(lengths):
            solo_out, solo_state = net.run_stream(data[i][:, :length])
            assert np.array_equal(solo_out[0], out[i, :length])
            # captured state must continue identically to the solo stream
            cont_ref, _ = net.run_stream(follow, solo_state)
            scattered = StreamState.for_network(net, 1)
            scattered.copy_row(0, batched, i)
            cont_got, _ = net.run_stream(follow, scattered)
            assert np.array_equal(cont_ref, cont_got)
        assert batched.steps.tolist() == lengths.tolist()

    def test_length_validation(self):
        net = make_net()
        x = make_inputs(batch=3, steps=10)
        state = StreamState.for_network(net, 3)
        with pytest.raises(ShapeError):
            net.run_stream(x, state, lengths=np.array([1, 2]))
        with pytest.raises(ShapeError):
            net.run_stream(x, state, lengths=np.array([0, 5, 5]))
        with pytest.raises(ShapeError):
            net.run_stream(x, state, lengths=np.array([1, 5, 11]))


class TestStateContract:
    def test_precision_is_sticky(self):
        net = make_net()
        x = make_inputs(batch=2, steps=4)
        _, state = net.run_stream(x, precision="float32")
        with pytest.raises(ValueError):
            net.run_stream(x, state, precision="float64")
        # a matching value passes
        net.run_stream(x, state, precision="float32")

    def test_batch_and_architecture_mismatch(self):
        net = make_net()
        x = make_inputs(batch=2, steps=4)
        _, state = net.run_stream(x)
        with pytest.raises(ShapeError):
            net.run_stream(make_inputs(batch=3, steps=4), state)
        other = SpikingNetwork((48, 30, 40), rng=0)
        with pytest.raises(ShapeError):
            other.run_stream(x, state)
        swapped = make_net("hard_reset")
        with pytest.raises(ShapeError):
            swapped.run_stream(x, state)

    def test_copy_row_rejects_foreign_states(self):
        net = make_net()
        state = StreamState.for_network(net, 1)
        # A float32 row would be cast silently, breaking the bitwise
        # contract; a hard-reset state has another layout.
        single = StreamState.for_network(net, 1, precision="float32")
        hard_reset = StreamState.for_network(make_net("hard_reset"), 1)
        for foreign in (single, hard_reset):
            with pytest.raises(ValueError):
                state.copy_row(0, foreign, 0)

    def test_clone_is_independent(self):
        net = make_net()
        x = make_inputs(batch=2, steps=6)
        _, state = net.run_stream(x)
        twin = state.clone()
        net.run_stream(x, state)
        assert state.steps.tolist() == [12, 12]
        assert twin.steps.tolist() == [6, 6]

    def test_fused_streaming_leaves_network_scratch_alone(self):
        net = make_net()
        x = make_inputs()
        net.run(x)  # deposits per-run scratch on layers/neurons
        k_before = [layer.k.copy() for layer in net.layers]
        h_before = [layer.neuron.h.copy() for layer in net.layers]
        net.run_stream(x[:, :9])
        for layer, k, h in zip(net.layers, k_before, h_before):
            assert np.array_equal(layer.k, k)
            assert np.array_equal(layer.neuron.h, h)


class TestExpScanCarry:
    def test_carry_matches_continuous_scan(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((3, 20, 5))
        full = exp_scan(xs.copy(), 0.7, out=xs.copy())
        a = exp_scan(xs[:, :8].copy(), 0.7, out=xs[:, :8].copy())
        b = exp_scan(xs[:, 8:].copy(), 0.7, out=xs[:, 8:].copy(),
                     carry=a[:, -1].copy())
        assert np.array_equal(full, np.concatenate([a, b], axis=1))

    def test_carry_non_aliased_output(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((2, 10, 4))
        full = exp_scan(xs, 0.5)
        b = exp_scan(xs[:, 4:], 0.5, carry=full[:, 3])
        assert np.array_equal(full[:, 4:], b)
