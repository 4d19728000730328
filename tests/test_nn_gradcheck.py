import numpy as np
import pytest

from sentprofile.nn import (
    DenseLayer,
    DropoutLayer,
    LSTMLayer,
    Network,
    binary_cross_entropy,
    categorical_cross_entropy,
)

from gradcheck import gradient_check


class LstmStack:
    """LSTM followed by a dense head, exposing the shared model protocol."""

    def __init__(self, input_dim, hidden, out_activation="sigmoid", seed=0):
        gen = np.random.default_rng(seed)
        self.lstm = LSTMLayer(input_dim, hidden, rng=gen)
        self.head = DenseLayer(hidden, 1 if out_activation == "sigmoid" else 2,
                               activation=out_activation, rng=gen)

    def forward(self, x, lengths, training=False):
        return self.head.forward(self.lstm.forward(x, lengths), training)

    def backward(self, d_out):
        self.lstm.backward(self.head.backward(d_out))

    def parameters(self):
        params = {f"lstm.{k}": v for k, v in self.lstm.params().items()}
        params.update({f"head.{k}": v for k, v in self.head.params().items()})
        return params

    def gradients(self):
        grads = {f"lstm.{k}": self.lstm.grads[k] for k in self.lstm.params()}
        grads.update({f"head.{k}": self.head.grads[k] for k in self.head.params()})
        return grads


def test_dense_sigmoid_small_init():
    gen = np.random.default_rng(1)
    net = Network([DenseLayer(5, 4, "sigmoid", rng=gen),
                   DenseLayer(4, 1, "sigmoid", rng=gen)])
    x = gen.normal(size=(6, 5)) * 0.5
    y = gen.integers(0, 2, size=(6, 1)).astype(float)
    assert gradient_check(net, x, y, loss="binary_cross_entropy") < 1e-5


def test_lstm_three_step_sequence():
    gen = np.random.default_rng(2)
    stack = LstmStack(3, 4, seed=2)
    x = gen.normal(size=(2, 3, 3))
    y = np.array([[1.0], [0.0]])
    err = gradient_check(stack, x, y, loss="binary_cross_entropy",
                         lengths=np.array([3, 2]))
    assert err < 1e-4


def test_dropout_inference_matches_plain_model():
    gen = np.random.default_rng(3)
    w_rng = np.random.default_rng(7)
    with_dropout = Network([DenseLayer(4, 3, "tanh", rng=np.random.default_rng(7)),
                            DropoutLayer(0.5),
                            DenseLayer(3, 2, "softmax", rng=np.random.default_rng(8))])
    without = Network([DenseLayer(4, 3, "tanh", rng=np.random.default_rng(7)),
                       DenseLayer(3, 2, "softmax", rng=np.random.default_rng(8))])
    x = gen.normal(size=(5, 4))
    y = np.eye(2)[gen.integers(0, 2, size=5)]
    err_with = gradient_check(with_dropout, x, y)
    err_without = gradient_check(without, x, y)
    assert err_with == pytest.approx(err_without, rel=1e-9)


def test_perfect_prediction_has_vanishing_gradient():
    net = Network([DenseLayer(2, 2, "softmax")])
    net.layers[0].weights[...] = np.array([[40.0, -40.0], [0.0, 0.0]])
    net.layers[0].bias[...] = 0.0
    x = np.array([[1.0, 0.0]])
    probs = net.forward(x)
    assert probs[0, 0] >= 1.0 - 1e-9
    _, d_probs = categorical_cross_entropy(probs, np.array([[1.0, 0.0]]))
    net.backward(d_probs)
    norm = max(np.abs(g).max() for g in net.gradients().values())
    assert norm < 1e-6


def test_backward_is_linear_in_output_gradient():
    gen = np.random.default_rng(4)
    net = Network([DenseLayer(3, 4, "tanh", rng=gen),
                   DenseLayer(4, 2, "softmax", rng=gen)])
    x = gen.normal(size=(5, 3))
    y = np.eye(2)[gen.integers(0, 2, size=5)]
    probs = net.forward(x)
    _, d_probs = categorical_cross_entropy(probs, y)
    net.backward(d_probs)
    grads_once = {k: v.copy() for k, v in net.gradients().items()}
    net.forward(x)
    net.backward(2.0 * d_probs)
    for name, grad in net.gradients().items():
        assert np.allclose(grad, 2.0 * grads_once[name], rtol=1e-12)


def test_mismatched_target_shape():
    probs = np.full((3, 2), 0.5)
    with pytest.raises(Exception, match="shape"):
        categorical_cross_entropy(probs, np.eye(3))
    with pytest.raises(Exception, match="shape"):
        binary_cross_entropy(np.full((3, 1), 0.5), np.zeros((2, 1)))


def test_random_small_networks_property():
    gen = np.random.default_rng(5)
    for case in range(12):
        d_in = int(gen.integers(2, 7))
        hidden = int(gen.integers(2, 7))
        act = ("tanh", "sigmoid", "relu")[case % 3]
        net = Network([
            DenseLayer(d_in, hidden, act, rng=np.random.default_rng(100 + case)),
            DenseLayer(hidden, 2, "softmax", rng=np.random.default_rng(200 + case)),
        ])
        x = gen.normal(size=(4, d_in))
        y = np.eye(2)[gen.integers(0, 2, size=4)]
        assert gradient_check(net, x, y) < 1e-4


def test_random_lstm_property():
    gen = np.random.default_rng(6)
    for case in range(6):
        d = int(gen.integers(2, 6))
        h = int(gen.integers(2, 6))
        t = int(gen.integers(2, 5))
        stack = LstmStack(d, h, seed=300 + case)
        x = gen.normal(size=(3, t, d))
        lengths = gen.integers(1, t + 1, size=3)
        for b, ln in enumerate(lengths):
            x[b, ln:, :] = 0.0
        y = gen.integers(0, 2, size=(3, 1)).astype(float)
        err = gradient_check(stack, x, y, loss="binary_cross_entropy",
                             lengths=lengths)
        assert err < 1e-4


@pytest.mark.parametrize("steps, lengths", [
    (5, [4, 3, 5]),  # shortest length above 1
    (4, [4, 4, 4]),  # all lengths equal to T: no padded step
    (5, [3, 3, 3]),  # all lengths equal, below T: two padded steps each
    (4, [1, 4, 3]),  # a length of 1: a sample ends at the first step
])
def test_lstm_gradients_around_each_last_step(steps, lengths):
    gen = np.random.default_rng(steps * 10 + lengths[0])
    stack = LstmStack(3, 4, out_activation="softmax", seed=7)
    lengths = np.array(lengths)
    x = gen.normal(size=(3, steps, 3))
    for b, ln in enumerate(lengths):
        x[b, ln:, :] = 0.0
    y = np.eye(2)[gen.integers(0, 2, size=3)]
    err = gradient_check(stack, x, y, lengths=lengths)
    assert err < 1e-4
