import math
import tracemalloc

import numpy as np
import pytest

from sentprofile.errors import ConfigError, ShapeError
from sentprofile.nn import (
    DenseLayer,
    DropoutLayer,
    LSTMLayer,
    Network,
    sigmoid,
    softmax,
    stack,
)

from gradcheck import OUTPUTS


def rng():
    return np.random.default_rng(0)


class TestDense:
    def test_identity_passthrough(self):
        layer = DenseLayer(3, 3, activation="identity")
        layer.weights[...] = np.eye(3)
        layer.bias[...] = 0.0
        x = rng().normal(size=(4, 3))
        assert np.array_equal(layer.forward(x), x)

    def test_softmax_rows_sum_to_one(self):
        # of a linear head's logits, as a classifier applies it
        layer = DenseLayer(4, 3, rng=rng())
        out = softmax(layer.forward(rng().normal(size=(6, 4))))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_error_names_layer(self):
        layer = DenseLayer(3, 2)
        with pytest.raises(ShapeError, match=r"dense\(3->2"):
            layer.forward(np.zeros((1, 5)))

    def test_unknown_activation(self):
        # softmax too: output heads are linear, and the model applies it
        for name in ("gelu", "softmax"):
            with pytest.raises(ConfigError):
                DenseLayer(2, 2, activation=name)

    def test_glorot_bounds(self):
        layer = DenseLayer(10, 20, rng=rng())
        limit = math.sqrt(6.0 / 30)
        assert np.abs(layer.weights).max() <= limit
        assert np.all(layer.bias == 0.0)


class TestDropout:
    def test_rate_zero_is_identity_in_training(self):
        layer = DropoutLayer(0.0)
        x = rng().normal(size=(5, 4))
        assert np.array_equal(layer.forward(x, training=True), x)

    def test_inference_is_identity(self):
        layer = DropoutLayer(0.7, rng=rng())
        x = rng().normal(size=(5, 4))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_training_masks_and_scales(self):
        layer = DropoutLayer(0.5, rng=rng())
        x = np.ones((200, 50))
        out = layer.forward(x, training=True)
        kept = out != 0.0
        assert np.all(out[kept] == 2.0)
        assert 0.4 < kept.mean() < 0.6

    def test_backward_reuses_mask(self):
        layer = DropoutLayer(0.5, rng=rng())
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        assert np.array_equal(grad, out)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            DropoutLayer(1.0)

    @pytest.mark.parametrize("members", [None, 3])
    def test_masks_after_a_shape_change_are_fresh_draws(self, members):
        # an epoch's short last batch changes the shape; every mask still
        # has the bits of rng.random(shape) >= rate, scaled by 1/(1 - rate)
        gens = [np.random.default_rng(j) for j in range(members or 1)]
        streams = [np.random.default_rng(j) for j in range(members or 1)]
        layer = DropoutLayer(0.4, rng=streams[0] if members is None else streams)
        data = np.random.default_rng(9)
        for batch in (32, 8, 32):
            shape = (batch, 50) if members is None else (members, batch, 50)
            x, d_out = data.normal(size=shape), data.normal(size=shape)
            draws = np.stack([gen.random((batch, 50)) for gen in gens])
            mask = ((draws >= 0.4) / (1.0 - 0.4)).reshape(shape)
            assert layer.forward(x, training=True).tobytes() == (x * mask).tobytes()
            assert layer.backward(d_out).tobytes() == (d_out * mask).tobytes()

    def test_inference_forward_between_steps_changes_nothing(self):
        # as an after_epoch score between two training steps does
        data = np.random.default_rng(4)
        x, d_out = data.normal(size=(32, 50)), data.normal(size=(32, 50))
        runs = []
        for probe in (False, True):
            layer = DropoutLayer(0.4, rng=rng())
            steps = []
            for _ in range(2):
                steps.append(layer.forward(x, training=True).tobytes())
                steps.append(layer.backward(d_out).tobytes())
                if probe:
                    for rows in (8, 32):
                        assert layer.forward(x[:rows]).tobytes() == x[:rows].tobytes()
            runs.append(steps)
        assert runs[0] == runs[1]


@pytest.mark.parametrize("make", [lambda: DropoutLayer(0.4, rng=rng()),
                                  lambda: DenseLayer(50, 50, "relu", rng=rng())],
                         ids=["dropout", "dense"])
def test_outputs_a_caller_keeps_survive_the_next_step(make):
    # the layers reuse buffers from step to step, but never the arrays
    # they return
    layer = make()
    data = np.random.default_rng(2)
    kept = []
    for _ in range(2):
        x, d_out = data.normal(size=(32, 50)), data.normal(size=(32, 50))
        out = layer.forward(x, training=True)
        grad = layer.backward(d_out)
        kept.append((out, out.copy(), grad, grad.copy()))
    for out, out_then, grad, grad_then in kept:
        assert out.tobytes() == out_then.tobytes()
        assert grad.tobytes() == grad_then.tobytes()


class TestLSTM:
    def test_zero_parameters_give_zero_hidden(self):
        layer = LSTMLayer(2, 3)
        layer.w_x[...] = 0.0
        layer.w_h[...] = 0.0
        layer.bias[...] = 0.0
        out = layer.forward(rng().normal(size=(2, 4, 2)), np.array([4, 4]))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_padding_never_moves_state(self):
        layer = LSTMLayer(3, 4, rng=rng())
        seq = rng().normal(size=(2, 5, 3))
        lengths = np.array([5, 3])
        seq[1, 3:, :] = 0.0
        out = layer.forward(seq, lengths)
        padded = np.concatenate([seq, np.zeros((2, 4, 3))], axis=1)
        out_padded = layer.forward(padded, lengths)
        assert np.array_equal(out, out_padded)

    def test_single_step_scalar_recurrence(self):
        # hand-evaluate the four gate equations for one step, H=1, d=1
        layer = LSTMLayer(1, 1)
        wi, wf, wo, wg = 0.5, -0.3, 0.8, 1.1
        layer.w_x[...] = np.array([[wi, wf, wo, wg]])
        layer.w_h[...] = 0.0
        bi, bf, bo, bg = 0.1, 0.2, -0.1, 0.05
        layer.bias[...] = np.array([bi, bf, bo, bg])
        x = 0.7

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sig(wi * x + bi)
        f = sig(wf * x + bf)
        o = sig(wo * x + bo)
        g = math.tanh(wg * x + bg)
        c = f * 0.0 + i * g
        h = o * math.tanh(c)
        out = layer.forward(np.array([[[x]]]), np.array([1]))
        assert out[0, 0] == pytest.approx(h, abs=1e-12)

    def test_forget_bias_initialized_to_one(self):
        layer = LSTMLayer(2, 3, rng=rng())
        h = 3
        assert np.all(layer.bias[h:2 * h] == 1.0)
        assert np.all(layer.bias[:h] == 0.0)
        assert np.all(layer.bias[2 * h:] == 0.0)

    def test_masked_steps_contribute_zero_gradient(self):
        # an input with extra all-zero steps gives the outputs and the
        # parameter gradients of the input trimmed to its longest length,
        # bit for bit
        layer = LSTMLayer(2, 3, rng=rng())
        gen = rng()
        lengths = np.array([2, 4, 1])
        x = gen.normal(size=(3, 8, 2))
        for b, length in enumerate(lengths):
            x[b, length:] = 0.0
        d_final = gen.normal(size=(3, 3))
        runs = []
        for steps in (x, x[:, :4]):
            out = layer.forward(steps, lengths)
            layer.backward(d_final)
            free = layer.forward(steps, lengths, cache=False)
            runs.append([out.tobytes(), free.tobytes()]
                        + [value.tobytes() for value in layer.grads.values()])
        assert runs[0] == runs[1]

    def test_length_validation(self):
        layer = LSTMLayer(2, 2)
        x = np.zeros((1, 3, 2))
        with pytest.raises(ShapeError):
            layer.forward(x, np.array([0]))
        with pytest.raises(ShapeError):
            layer.forward(x, np.array([4]))

    def test_no_nan_with_bounded_parameters(self):
        layer = LSTMLayer(3, 4)
        gen = rng()
        layer.w_x[...] = gen.uniform(-10, 10, layer.w_x.shape)
        layer.w_h[...] = gen.uniform(-10, 10, layer.w_h.shape)
        layer.bias[...] = gen.uniform(-10, 10, layer.bias.shape)
        out = layer.forward(gen.uniform(-10, 10, size=(3, 8, 3)),
                            np.array([8, 8, 8]))
        assert np.isfinite(out).all()


class TestLstmForward:
    def test_final_hidden_at_effective_length(self):
        # the state after step `length` equals a run over the truncated
        # sequence: padded steps carry it through unchanged
        layer = LSTMLayer(2, 3, rng=rng())
        x = rng().normal(size=(3, 6, 2))
        lengths = np.array([4, 6, 1])
        for b, length in enumerate(lengths):
            x[b, length:] = 0.0
        final = layer.forward(x, lengths)
        assert final.shape == (3, 3)
        for b, length in enumerate(lengths):
            alone = layer.forward(x[b:b + 1, :length], np.array([length]))
            assert np.allclose(final[b], alone[0], rtol=0, atol=1e-14)

    def test_zero_effective_length_rejected(self):
        layer = LSTMLayer(2, 3)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 4, 2)), np.array([0]))

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_cache_free_forward_matches_caching_bytes(self, batch):
        layer = LSTMLayer(5, 6, rng=rng())
        gen = rng()
        x = gen.normal(size=(batch, 9, 5))
        lengths = gen.integers(1, 10, size=batch)
        for b, length in enumerate(lengths):
            x[b, length:] = 0.0
        d_final = gen.normal(size=(batch, 6))
        cached = layer.forward(x, lengths)
        cache = layer._cache
        planes = {name: value.copy() for name, value in cache.items()}
        free = layer.forward(x, lengths, cache=False)
        assert free.tobytes() == cached.tobytes()
        layer.forward(gen.normal(size=(3, 4, 5)), np.array([4, 1, 2]),
                      cache=False)
        assert layer._cache is cache
        assert all(np.array_equal(cache[name], planes[name]) for name in planes)
        # backward still pairs with the last caching forward
        assert layer.backward(d_final) is None
        grads = {name: value.copy() for name, value in layer.grads.items()}
        layer.forward(x, lengths)
        layer.backward(d_final)
        assert all(grads[name].tobytes() == layer.grads[name].tobytes()
                   for name in grads)

    @pytest.mark.parametrize("batch, steps, d, hd", [
        (batch, steps, d, hd) for batch in (1, 2, 7, 32, 64)
        for steps in (1, 9, 30) for d, hd in ((24, 32), (26, 39))
    ] + [(95, 9, 91, 57)])
    def test_bytes_match_per_step_reference(self, batch, steps, d, hd):
        # within 1e-12 of the plain per-step recurrence, over ragged,
        # all-equal and length-1 rows; cache-free and caching forwards agree
        # byte for byte
        layer = LSTMLayer(d, hd, rng=rng())
        gen = np.random.default_rng(batch * 100 + steps)
        for lengths in (gen.integers(1, steps + 1, size=batch),
                        np.full(batch, steps),
                        np.where(np.arange(batch) % 3 == 0, 1, steps)):
            x = gen.normal(size=(batch, steps, d))
            for b, length in enumerate(lengths):
                x[b, length:] = 0.0
            d_final = gen.normal(size=(batch, hd))
            want_h, want_grads = per_step_lstm(layer, x, lengths, d_final)
            got_h = layer.forward(x, lengths)
            np.testing.assert_allclose(got_h, want_h, rtol=0, atol=1e-12)
            sent = d_final.copy()
            layer.backward(sent)
            assert sent.tobytes() == d_final.tobytes()
            for name, value in want_grads.items():
                np.testing.assert_allclose(layer.grads[name], value, rtol=0,
                                           atol=1e-12, err_msg=name)
            free = layer.forward(x, lengths, cache=False)
            assert free.tobytes() == got_h.tobytes()

    def test_underflowed_output_gate_gives_reference_zero_signs(self):
        # o = sigmoid(-1000) is exactly 0, so every hidden state is a zero
        layer = LSTMLayer(4, 5, rng=rng())
        layer.bias[10:15] = -1000.0
        gen = rng()
        x = gen.normal(size=(6, 7, 4))
        lengths = np.array([7, 7, 5, 7, 6, 7])
        for b, length in enumerate(lengths):
            x[b, length:] = 0.0
        want_h, _ = per_step_lstm(layer, x, lengths, np.ones((6, 5)))
        assert np.all(want_h == 0.0)
        for got in (layer.forward(x, lengths),
                    layer.forward(x, lengths, cache=False)):
            assert np.isfinite(got).all()
            assert np.array_equal(got, want_h)

    def test_cache_free_forward_memory_stays_under_twice_the_input(self):
        # extraction's chunk: 256 rows of 30 steps at the benchmark's D, H
        layer = LSTMLayer(24, 32, rng=rng())
        x = rng().normal(size=(256, 30, 24))
        lengths = np.full(256, 30)
        tracemalloc.start()
        try:
            layer.forward(x, lengths, cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes

    def test_training_step_memory_stays_under_previous_kernel_plus_input(self):
        # forward plus backward at the benchmark's kernel shape. 5,505,365
        # bytes is what the kernel before the stacked GEMM allocated here
        # (numpy 2.4, tracemalloc); this one may add one copy of x, which
        # its stacked GEMM operands hold
        layer = LSTMLayer(24, 32, rng=rng())
        gen = rng()
        x = gen.normal(size=(32, 80, 24))
        d_final = gen.normal(size=(32, 32))
        for lengths in (np.full(32, 80), gen.integers(1, 81, size=32)):
            tracemalloc.start()
            try:
                layer.forward(x, lengths)
                layer.backward(d_final)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5_505_365 + x.nbytes

    def test_second_caching_forward_peaks_near_one_cache(self):
        # the first forward's cache is released before the second allocates
        # its own, so the second adds little over what the first left
        layer = LSTMLayer(24, 32, rng=rng())
        x = rng().normal(size=(32, 80, 24))
        lengths = np.full(32, 80)
        tracemalloc.start()
        try:
            layer.forward(x, lengths)
            cache_bytes = sum(a.nbytes for a in (layer._cache["planes"],
                                                 layer._cache["acts"]))
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            layer.forward(x, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held < 0.25 * cache_bytes


class TestLstmMatchesIndexedKernel:
    """The step loops keep the bytes of the kernel that indexed each
    step's views inside the loop (`indexed_lstm_forward` and
    `indexed_lstm_backward`, kept below as the reference): the same ufuncs
    and GEMMs on the same operands in the same order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 6, 32])
    @pytest.mark.parametrize("steps", [7, 8])
    def test_outputs_and_gradients_keep_their_bytes(self, dtype, batch, steps):
        # ragged, all-equal and length-1 rows, at an odd and an even T for
        # the ring's parity, then a forward of another shape on the same
        # layer; each caching forward replaces the last one's cache
        layer = LSTMLayer(5, 6, rng=rng())
        gen = np.random.default_rng(batch * 10 + steps)
        ragged = gen.integers(1, steps + 1, size=batch)
        ragged[0] = steps
        for lengths in (ragged, np.full(batch, steps), np.ones(batch, int),
                        np.full(batch, steps - 1),
                        gen.integers(1, steps + 4, size=batch + 2)):
            x = gen.normal(size=(len(lengths), steps + 3, 5)).astype(dtype)
            for b, length in enumerate(lengths):
                x[b, length:] = 0.0
            d_final = gen.normal(size=(len(lengths), 6))
            want_h, want_free, want_grads = indexed_lstm(layer, x, lengths,
                                                         d_final)
            got_h = layer.forward(x, lengths)
            layer.backward(d_final)
            assert got_h.dtype == dtype
            assert got_h.tobytes() == want_h.tobytes()
            for name, value in want_grads.items():
                assert layer.grads[name].tobytes() == value.tobytes(), name
            free = layer.forward(x, lengths, cache=False)
            assert free.tobytes() == want_free.tobytes()


class TestFloat32Kernel:
    # float32 rounds each operation to u = 2**-24 (about 6e-8). A step's
    # GEMM has depth K = H+D+1, at most 66 here, so its entries can lose up
    # to K*u (about 3.9e-6, Higham's gamma_K) in the worst case; the gates
    # have slope at most 1 and the forget gate shrinks the carried state,
    # so the recurrence does not blow that up. Measured against the float64
    # kernel on the same float32-rounded inputs, the largest error stays
    # under 10*u at every shape below (and at the paper shape (32, 93, 100,
    # 64)). A bound of 1e-5 of the largest entry keeps room for other BLAS
    # builds and still fails a kernel that computed in float16 (u about
    # 4.9e-4) or mixed up a gate.
    BOUND = 1e-5

    @pytest.mark.parametrize("batch, steps, d, hd", [
        (1, 9, 24, 32), (7, 30, 24, 32), (32, 80, 24, 32), (64, 30, 26, 39)])
    def test_float32_within_bound_of_float64(self, batch, steps, d, hd):
        layer = LSTMLayer(d, hd, rng=rng())
        gen = np.random.default_rng(batch * 100 + steps)
        lengths = gen.integers(1, steps + 1, size=batch)
        lengths[0] = steps
        x32 = gen.normal(size=(batch, steps, d)).astype(np.float32)
        for b, length in enumerate(lengths):
            x32[b, length:] = 0.0
        x64 = x32.astype(np.float64)
        d_final = gen.normal(size=(batch, hd))

        want_h = layer.forward(x64, lengths)
        layer.backward(d_final)
        want_grads = {name: value.copy() for name, value in layer.grads.items()}
        got_h = layer.forward(x32, lengths)
        layer.backward(d_final)
        free = layer.forward(x32, lengths, cache=False)
        assert got_h.dtype == free.dtype == np.float32
        assert free.tobytes() == got_h.tobytes()
        for name, got, want in [("h", got_h, want_h)] + [
                (name, layer.grads[name], want_grads[name])
                for name in want_grads]:
            error = np.abs(got - want).max() / np.abs(want).max()
            assert error <= self.BOUND, name

        # one training step on float32 sequences leaves the parameters,
        # the gradients and their flat buffers in float64
        from sentprofile.nn import TrainConfig, binary_cross_entropy, fit
        from sentprofile.sentiment import SentimentModel

        model = SentimentModel(d, hd, dropout_rate=0.0)
        before = model.checksum()
        targets = (gen.random((batch, 1)) > 0.5).astype(np.float64)
        fit([model], [(x32, lengths)], [targets], binary_cross_entropy,
            TrainConfig(epochs=1, batch_size=batch, seed=0), [rng()])
        assert model.checksum() != before
        flat_params, flat_grads = model.buffers()
        assert flat_params.dtype == flat_grads.dtype == np.float64
        for value in [*model.parameters().values(),
                      *model.gradients().values()]:
            assert value.dtype == np.float64
            assert np.shares_memory(value, flat_params) or \
                np.shares_memory(value, flat_grads)


def per_step_lstm(layer, x, lengths, d_final):
    """The plain per-step recurrence, the reference `LSTMLayer` is held to.
    Returns the final hidden state and the three gradients."""
    n, t_max, _ = x.shape
    hd = layer.hidden_dim
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    steps = []
    for t in range(t_max):
        z = x[:, t, :] @ layer.w_x + h @ layer.w_h + layer.bias
        gates = branch_per_sign_sigmoid(z[:, :3 * hd])
        i, f, o = gates[:, :hd], gates[:, hd:2 * hd], gates[:, 2 * hd:]
        g = np.tanh(z[:, 3 * hd:])
        c_raw = f * c + i * g
        tanh_c = np.tanh(c_raw)
        h_raw = o * tanh_c
        m = (t < lengths).astype(np.float64)[:, None]
        steps.append((i, f, o, g, tanh_c, c, h, m))
        c = m * c_raw + (1.0 - m) * c
        h = m * h_raw + (1.0 - m) * h
    dwx = np.zeros_like(layer.w_x)
    dwh = np.zeros_like(layer.w_h)
    db = np.zeros_like(layer.bias)
    dh = d_final.copy()
    dc = np.zeros((n, hd))
    for t in range(t_max - 1, -1, -1):
        i, f, o, g, tanh_c, c_prev, h_prev, m = steps[t]
        dh_step = dh * m
        dh_carry = dh * (1.0 - m)
        dc_step = dc * m
        dc_carry = dc * (1.0 - m)
        do = dh_step * tanh_c
        dc_raw = dc_step + dh_step * o * (1.0 - tanh_c * tanh_c)
        df = dc_raw * c_prev
        di = dc_raw * g
        dg = dc_raw * i
        dz = np.empty((n, 4 * hd))
        dz[:, :hd] = di * i * (1.0 - i)
        dz[:, hd:2 * hd] = df * f * (1.0 - f)
        dz[:, 2 * hd:3 * hd] = do * o * (1.0 - o)
        dz[:, 3 * hd:] = dg * (1.0 - g * g)
        dwx += x[:, t, :].T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dh = dz @ layer.w_h.T + dh_carry
        dc = dc_raw * f + dc_carry
    return h, {"w_x": dwx, "w_h": dwh, "bias": db}


def indexed_lstm(layer, x, lengths, d_final):
    """(cached h, cache-free h, gradients) of the indexed kernel."""
    cached, cache = indexed_lstm_forward(layer, x, lengths, cache=True)
    free, _ = indexed_lstm_forward(layer, x, lengths, cache=False)
    return cached, free, indexed_lstm_backward(layer, cache, d_final)


def indexed_stacked_weight(layer, dtype):
    hd, d = layer.hidden_dim, layer.input_dim
    weight = np.empty((4 * hd, hd + d + 1), dtype)
    weight[:, :hd] = layer.w_h.T
    weight[:, hd:hd + d] = layer.w_x.T
    weight[:, hd + d] = layer.bias
    weight[:3 * hd] *= 0.5
    return weight


def indexed_last_steps(lengths):
    ends = {}
    for b, length in enumerate(lengths.tolist()):
        ends.setdefault(length - 1, []).append(b)
    return ends


def indexed_gate_planes(acts, hd):
    return tuple(acts[:, k * hd:(k + 1) * hd] for k in range(5))


def indexed_lstm_forward(layer, x, lengths, cache):
    """`LSTMLayer.forward` as it indexed each step's views in the loop;
    returns (h, the backward's cache or None)."""
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    x = x.astype(dtype, copy=False)
    lengths = np.asarray(lengths, dtype=np.int64)
    n, _, d = x.shape
    t_max = int(lengths.max())
    hd = layer.hidden_dim
    weight = indexed_stacked_weight(layer, dtype)
    planes = np.zeros((t_max + 1 if cache else 2, 2 * hd + d + 1, n), dtype)
    planes[:, 2 * hd + d] = 1.0
    if cache:
        planes[:t_max, 2 * hd:2 * hd + d] = x[:, :t_max].transpose(1, 2, 0)
    acts = np.empty((t_max if cache else 1, 5 * hd, n), dtype)
    i, f, o, g, tanh_c = indexed_gate_planes(acts, hd)
    scratch = np.empty((hd, n), dtype)
    if not cache:
        final = np.empty((n, hd), dtype)
        ends = indexed_last_steps(lengths)
    for t in range(t_max):
        s = t if cache else 0
        cur, nxt = (t, t + 1) if cache else (t % 2, 1 - t % 2)
        if not cache:
            np.copyto(planes[cur, 2 * hd:2 * hd + d], x[:, t].T)
        z = acts[s, :4 * hd]
        np.matmul(weight, planes[cur, hd:], out=z)
        np.tanh(z, out=z)
        np.multiply(z[:3 * hd], 0.5, out=z[:3 * hd])
        np.add(z[:3 * hd], 0.5, out=z[:3 * hd])
        c_new = planes[nxt, :hd]
        np.multiply(f[s], planes[cur, :hd], out=c_new)
        np.multiply(i[s], g[s], out=scratch)
        np.add(c_new, scratch, out=c_new)
        np.tanh(c_new, out=tanh_c[s])
        np.multiply(o[s], tanh_c[s], out=planes[nxt, hd:2 * hd])
        if not cache and t in ends:
            final[ends[t]] = planes[nxt, hd:2 * hd][:, ends[t]].T
    if not cache:
        return final, None
    return (planes[lengths, hd:2 * hd, np.arange(n)],
            {"planes": planes, "acts": acts, "lengths": lengths})


def indexed_lstm_backward(layer, cache, d_final):
    """`LSTMLayer.backward` as it indexed each step's views in the loop;
    returns the w_x, w_h and bias gradients."""
    planes, acts, lengths = cache["planes"], cache["acts"], cache["lengths"]
    t_max, _, n = acts.shape
    hd, d = layer.hidden_dim, layer.input_dim
    dtype = planes.dtype
    d_final = np.asarray(d_final, dtype=dtype)
    ends = indexed_last_steps(lengths)
    d_weight = np.zeros((4 * hd, hd + d + 1), dtype)
    step_grad = np.empty_like(d_weight)
    d_state = np.zeros((2, 2 * hd, n), dtype)
    dc_raw = np.empty((hd, n), dtype)
    slope = np.empty((2 * hd, n), dtype)
    one_minus = np.empty((3 * hd, n), dtype)
    dz = np.empty((4 * hd, n), dtype)
    w_h = layer.w_h.astype(dtype, copy=False)
    dz_i, dz_f, dz_o, dz_g = (dz[k * hd:(k + 1) * hd] for k in range(4))
    i, f, o, g, tanh_c = indexed_gate_planes(acts, hd)
    for t in range(t_max - 1, -1, -1):
        d_in, d_out = d_state[t % 2], d_state[1 - t % 2]
        dc, dh = d_in[:hd], d_in[hd:]
        if t in ends:
            dh[:, ends[t]] = d_final[ends[t]].T
        np.multiply(acts[t, 3 * hd:], acts[t, 3 * hd:], out=slope)
        np.subtract(1.0, slope, out=slope)
        np.multiply(dh, tanh_c[t], out=dz_o)
        np.multiply(dh, o[t], out=dc_raw)
        np.multiply(dc_raw, slope[hd:], out=dc_raw)
        np.add(dc, dc_raw, out=dc_raw)
        np.multiply(dc_raw, g[t], out=dz_i)
        np.multiply(dc_raw, planes[t, :hd], out=dz_f)
        np.multiply(dc_raw, i[t], out=dz_g)
        np.multiply(dz[:3 * hd], acts[t, :3 * hd], out=dz[:3 * hd])
        np.subtract(1.0, acts[t, :3 * hd], out=one_minus)
        np.multiply(dz[:3 * hd], one_minus, out=dz[:3 * hd])
        np.multiply(dz_g, slope[:hd], out=dz_g)
        np.matmul(dz, planes[t, hd:].T, out=step_grad)
        np.add(d_weight, step_grad, out=d_weight)
        np.multiply(dc_raw, f[t], out=d_out[:hd])
        np.matmul(w_h, dz, out=d_out[hd:])
    return {"w_h": d_weight[:, :hd].T.astype(np.float64),
            "w_x": d_weight[:, hd:hd + d].T.astype(np.float64),
            "bias": d_weight[:, hd + d].astype(np.float64)}


class TestNetwork:
    def test_forward_chains_shapes(self):
        net = Network([DenseLayer(4, 6, "relu", rng=rng()),
                       DropoutLayer(0.2),
                       DenseLayer(6, 2, rng=rng())])
        out = net.forward(rng().normal(size=(5, 4)))
        assert out.shape == (5, 2)

    def test_mismatched_layers_error(self):
        net = Network([DenseLayer(4, 6), DenseLayer(5, 2)])
        with pytest.raises(ShapeError, match=r"dense\(5->2"):
            net.forward(np.zeros((1, 4)))

    def test_dropout_inactive_at_inference(self):
        net = Network([DenseLayer(3, 3, "tanh", rng=rng()), DropoutLayer(0.9)])
        x = rng().normal(size=(4, 3))
        assert np.array_equal(net.forward(x), net.forward(x, training=False))

    def test_parameter_names_stable(self):
        net = Network([DenseLayer(2, 2), DropoutLayer(0.1), DenseLayer(2, 1)])
        assert list(net.parameters()) == ["layer0.weights", "layer0.bias",
                                          "layer2.weights", "layer2.bias"]


def gender_shaped_networks(members, seed=0, dropout_rate=0.4):
    """`members` networks of the gender MLP's shape, each its own init."""
    return [Network([DenseLayer(56, 50, "relu", rng=np.random.default_rng(seed + j)),
                     DropoutLayer(dropout_rate),
                     DenseLayer(50, 10, "relu", rng=np.random.default_rng(seed + j)),
                     DenseLayer(10, 2, rng=np.random.default_rng(seed + j))])
            for j in range(members)]


class TestStackedNetwork:
    """A network stacked over k members (`nn.stack`) keeps every member's
    bits: the forward product, the two backward GEMMs and the bias sum run
    per member on the layouts the member's own 2-D layer uses."""

    @pytest.mark.parametrize("members", [2, 3, 5, 10])
    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 8, 32])
    def test_bytes_match_each_member(self, members, batch):
        # training forwards, which keep the backward caches; dropout at
        # rate 0 is the identity, so stack and members see one graph
        gen = np.random.default_rng(members * 100 + batch)
        nets = gender_shaped_networks(members, dropout_rate=0.0)
        stacked = stack(nets)
        x = gen.normal(size=(members, batch, 56))
        d_out = gen.normal(size=(members, batch, 2))
        out = stacked.forward(x, training=True)
        d_in = stacked.backward(d_out)
        stacked_grads = {name: grad.copy()
                         for name, grad in stacked.gradients().items()}
        # without the input gradient the parameter gradients keep their bytes
        assert stacked.backward(d_out, input_grad=False) is None
        for name, grad in stacked.gradients().items():
            assert grad.tobytes() == stacked_grads[name].tobytes(), name
        for j, net in enumerate(nets):
            assert net.forward(x[j], training=True).tobytes() == \
                out[j].tobytes()
            assert net.backward(d_out[j]).tobytes() == d_in[j].tobytes()
            for name, grad in net.gradients().items():
                assert grad.tobytes() == stacked_grads[name][j].tobytes(), name

    @pytest.mark.parametrize("members", [2, 5])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_dense_products_match_reference(self, members, batch):
        # the 2-D products of a lone dense layer, as written before the
        # member axis: x @ w + b, x.T @ g, g.sum(axis=0) and g @ w.T
        gen = np.random.default_rng(batch)
        nets = [Network([DenseLayer(56, 50, rng=np.random.default_rng(j))])
                for j in range(members)]
        stacked = stack(nets)
        x = gen.normal(size=(members, batch, 56))
        g = gen.normal(size=(members, batch, 50))
        out = stacked.forward(x, training=True)
        d_in = stacked.backward(g)
        grads = stacked.gradients()
        for j, net in enumerate(nets):
            w, b = net.layers[0].weights, net.layers[0].bias
            assert out[j].tobytes() == (x[j] @ w + b).tobytes()
            assert grads["layer0.weights"][j].tobytes() == \
                (x[j].T @ g[j]).tobytes()
            assert grads["layer0.bias"][j].tobytes() == \
                g[j].sum(axis=0).tobytes()
            assert d_in[j].tobytes() == (g[j] @ w.T).tobytes()

    @pytest.mark.parametrize("loss", sorted(OUTPUTS))
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_losses_give_each_member_its_own_mean(self, loss, batch):
        # each member's mean is the sum over its whole (B, C) batch, as
        # written before the member axis; the probabilities need no clip
        reference = {
            "binary_cross_entropy": lambda p, t: -(
                t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).sum() / len(p),
            "categorical_cross_entropy": lambda p, t: -(
                t * np.log(p)).sum() / len(p)}[loss]
        gen = np.random.default_rng(batch)
        width = 1 if loss == "binary_cross_entropy" else 2
        probs = gen.uniform(0.01, 0.99, size=(3, batch, width))
        if width == 2:
            probs[..., 1] = 1.0 - probs[..., 0]
        targets = np.eye(2)[gen.integers(0, 2, size=(3, batch))][..., :width]
        loss_fn = OUTPUTS[loss][0]
        value, d_logits = loss_fn(probs, targets)
        assert value.shape == (3,)
        for j in range(3):
            alone, d_alone = loss_fn(probs[j], targets[j])
            assert np.float64(alone).tobytes() == value[j].tobytes() == \
                np.float64(reference(probs[j], targets[j])).tobytes()
            assert d_alone.tobytes() == d_logits[j].tobytes()

    def test_parameters_are_rows_of_one_buffer(self):
        nets = gender_shaped_networks(3)
        before = [net.checksum() for net in nets]
        stacked = stack(nets)
        params, grads = stacked.buffers()
        assert params.shape == grads.shape == (3, 56 * 50 + 50 + 50 * 10 + 10
                                               + 10 * 2 + 2)
        assert [net.checksum() for net in nets] == before
        for j, net in enumerate(nets):
            assert net.buffers()[0] is not None
            assert np.array_equal(net.buffers()[0], params[j])
            for name, value in net.parameters().items():
                assert np.shares_memory(value, params[j])
                assert np.array_equal(stacked.parameters()[name][j], value)

    def test_each_member_draws_its_own_dropout_mask(self):
        nets = [Network([DropoutLayer(0.5, rng=np.random.default_rng(j))])
                for j in range(3)]
        stacked = stack(nets)
        out = stacked.forward(np.ones((3, 4, 6)), training=True)
        for j in range(3):
            alone = DropoutLayer(0.5, rng=np.random.default_rng(j))
            assert alone.forward(np.ones((4, 6)), training=True).tobytes() == \
                out[j].tobytes()

    def test_member_count_checked(self):
        stacked = stack(gender_shaped_networks(2))
        with pytest.raises(ShapeError, match=r"\(2, B, 56\)"):
            stacked.forward(np.zeros((3, 4, 56)))


def test_sigmoid_extremes_and_softmax_stability():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    s = sigmoid(x)
    assert np.isfinite(s).all()
    assert s[2] == 0.5
    big = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
    assert np.isfinite(big).all()
    assert big[0, 0] == pytest.approx(0.5)


def branch_per_sign_sigmoid(x):
    """The masked form `sigmoid` replaced; its bytes are the reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bytes_match_branch_per_sign_form():
    gen = rng()
    inputs = [gen.normal(scale=scale, size=(32, 128))[:, :96]
              for scale in (1.0, 30.0, 400.0)]
    inputs.append(np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0,
                            np.nan, -np.nan, 1e-320, -1e-320]))
    inputs += [np.float64(v) for v in (0.0, -0.0, -800.0, 800.0, -1e-320)]
    for x in inputs:
        want = branch_per_sign_sigmoid(x).tobytes()
        assert sigmoid(x).tobytes() == want
        # written through a strided view, leaving the rest of its buffer
        buffer = np.full(x.shape + (2,), 7.0)
        out = buffer[..., 0]
        assert sigmoid(x, out=out) is out
        assert out.tobytes() == want
        assert np.all(buffer[..., 1] == 7.0)


def test_forward_finite_with_parameters_bounded_by_ten():
    gen = rng()
    for trial in range(10):
        act = ("sigmoid", "tanh", "relu", "identity")[trial % 4]
        net = Network([DenseLayer(4, 6, "tanh"),
                       DropoutLayer(0.4),
                       DenseLayer(6, 3, act)])
        for value in net.parameters().values():
            value[...] = gen.uniform(-10, 10, value.shape)
        out = net.forward(gen.uniform(-10, 10, size=(8, 4)), training=True)
        assert np.isfinite(out).all()
