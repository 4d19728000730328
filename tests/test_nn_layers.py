import math

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
)


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
        layer = DenseLayer(4, 3, activation="softmax", rng=rng())
        out = layer.forward(rng().normal(size=(6, 4)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_error_names_layer(self):
        layer = DenseLayer(3, 2)
        with pytest.raises(ShapeError, match=r"dense\(3->2"):
            layer.forward(np.zeros((1, 5)))

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            DenseLayer(2, 2, activation="gelu")

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
        layer = LSTMLayer(2, 3, rng=rng())
        x = rng().normal(size=(1, 6, 2))
        x[0, 2:, :] = 0.0
        layer.forward(x, np.array([2]))
        layer.backward(np.ones((1, 3)))
        grads_long = {k: v.copy() for k, v in layer.grads.items()}
        layer.forward(x[:, :2, :], np.array([2]))
        layer.backward(np.ones((1, 3)))
        for name in grads_long:
            assert np.array_equal(grads_long[name], layer.grads[name])

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
        dx = layer.backward(d_final)
        grads = {name: value.copy() for name, value in layer.grads.items()}
        layer.forward(x, lengths)
        assert dx.tobytes() == layer.backward(d_final).tobytes()
        assert all(grads[name].tobytes() == layer.grads[name].tobytes()
                   for name in grads)


class TestNetwork:
    def test_forward_chains_shapes(self):
        net = Network([DenseLayer(4, 6, "relu", rng=rng()),
                       DropoutLayer(0.2),
                       DenseLayer(6, 2, "softmax", rng=rng())])
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
                            np.nan, -np.nan]))
    for x in inputs:
        assert sigmoid(x).tobytes() == branch_per_sign_sigmoid(x).tobytes()


def test_forward_finite_with_parameters_bounded_by_ten():
    gen = rng()
    for trial in range(10):
        act = ("sigmoid", "tanh", "relu", "softmax", "identity")[trial % 5]
        net = Network([DenseLayer(4, 6, "tanh"),
                       DropoutLayer(0.4),
                       DenseLayer(6, 3, act)])
        for value in net.parameters().values():
            value[...] = gen.uniform(-10, 10, value.shape)
        out = net.forward(gen.uniform(-10, 10, size=(8, 4)), training=True)
        assert np.isfinite(out).all()
