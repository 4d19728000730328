import numpy as np
import pytest

from sentprofile.gender import GenderModel
from sentprofile.nn import (
    Adam,
    DenseLayer,
    DropoutLayer,
    LSTMLayer,
    Network,
    binary_cross_entropy,
    categorical_cross_entropy,
    softmax,
)
from sentprofile.sentiment import SentimentModel

from gradcheck import gradient_check


class LstmStack:
    """LSTM followed by a linear head of `outputs` logits, exposing the
    shared model protocol."""

    def __init__(self, input_dim, hidden, outputs=1, seed=0):
        gen = np.random.default_rng(seed)
        self.lstm = LSTMLayer(input_dim, hidden, rng=gen)
        self.head = DenseLayer(hidden, outputs, rng=gen)

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
                   DenseLayer(4, 1, rng=gen)])
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
                            DenseLayer(3, 2, rng=np.random.default_rng(8))])
    without = Network([DenseLayer(4, 3, "tanh", rng=np.random.default_rng(7)),
                       DenseLayer(3, 2, rng=np.random.default_rng(8))])
    x = gen.normal(size=(5, 4))
    y = np.eye(2)[gen.integers(0, 2, size=5)]
    err_with = gradient_check(with_dropout, x, y)
    err_without = gradient_check(without, x, y)
    assert err_with == pytest.approx(err_without, rel=1e-9)
    # the check runs the dropout layer at rate 0 and gives it its rate back
    assert with_dropout.layers[1].rate == 0.5


def test_perfect_prediction_has_vanishing_gradient():
    net = Network([DenseLayer(2, 2)])
    net.layers[0].weights[...] = np.array([[40.0, -40.0], [0.0, 0.0]])
    net.layers[0].bias[...] = 0.0
    x = np.array([[1.0, 0.0]])
    probs = softmax(net.forward(x, training=True))
    assert probs[0, 0] >= 1.0 - 1e-9
    _, d_logits = categorical_cross_entropy(probs, np.array([[1.0, 0.0]]))
    net.backward(d_logits)
    norm = max(np.abs(g).max() for g in net.gradients().values())
    assert norm < 1e-6


def saturated_sentiment_case(gen):
    # sigmoid(40) rounds to 1 against target 0
    model = SentimentModel(input_dim=3, hidden_size=4)
    inputs = (gen.normal(size=(2, 3, 3)), np.array([3, 2]))
    return model, model.head, 40.0, inputs, np.zeros((2, 1)), binary_cross_entropy


def saturated_gender_case(gen):
    # softmax(30, 0) puts 1 - 9e-14 on the first class against target class 2
    model = GenderModel(input_dim=3, hidden=(4, 3))
    inputs = (gen.normal(size=(2, 3)),)
    return (model, model.network.layers[-1], [30.0, 0.0], inputs,
            np.eye(2)[[1, 1]], categorical_cross_entropy)


@pytest.mark.parametrize("case", [saturated_sentiment_case,
                                  saturated_gender_case])
def test_confidently_wrong_head_keeps_its_gradient(case):
    # the head-bias gradient is sum(a - y)/B, about 1 per logit here, where
    # chaining d(loss)/d(probs) through the output Jacobian gave 0 or 0.09
    model, head, bias, inputs, targets, loss = case(np.random.default_rng(0))
    head.weights[...] = 0.0
    head.bias[...] = bias
    probs = model.forward_batch(inputs, training=True)
    _, d_logits = loss(probs, targets)
    model.backward(d_logits)
    want = (probs - targets).sum(axis=0) / len(targets)
    assert np.abs(want).min() > 0.99
    np.testing.assert_allclose(head.grads["bias"], want, rtol=1e-12)


def test_backward_is_linear_in_output_gradient():
    gen = np.random.default_rng(4)
    net = Network([DenseLayer(3, 4, "tanh", rng=gen),
                   DenseLayer(4, 2, rng=gen)])
    x = gen.normal(size=(5, 3))
    y = np.eye(2)[gen.integers(0, 2, size=5)]
    _, d_logits = categorical_cross_entropy(
        softmax(net.forward(x, training=True)), y)
    net.backward(d_logits)
    grads_once = {k: v.copy() for k, v in net.gradients().items()}
    net.forward(x, training=True)
    net.backward(2.0 * d_logits)
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
            DenseLayer(hidden, 2, rng=np.random.default_rng(200 + case)),
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
    stack = LstmStack(3, 4, outputs=2, seed=7)
    lengths = np.array(lengths)
    x = gen.normal(size=(3, steps, 3))
    for b, ln in enumerate(lengths):
        x[b, ln:, :] = 0.0
    y = np.eye(2)[gen.integers(0, 2, size=3)]
    err = gradient_check(stack, x, y, lengths=lengths)
    assert err < 1e-4


def test_float64_network_trains_in_float64():
    # a network of float64 dense layers computes, steps and gradient-checks
    # in float64, a float32 input included: a layer casts its input to its
    # weights' dtype
    gen = np.random.default_rng(8)
    net = Network([DenseLayer(3, 5, "relu", rng=gen), DropoutLayer(0.3, rng=gen),
                   DenseLayer(5, 2, rng=gen)])
    x = gen.normal(size=(8, 3)).astype(np.float32)
    y = np.eye(2)[np.arange(8) % 2]
    optimizer = Adam(1e-2)
    params, grads = net.buffers()
    for _ in range(3):
        probs = softmax(net.forward(x, training=True))
        _, d_logits = categorical_cross_entropy(probs, y)
        net.backward(d_logits)
        optimizer.step({"model": params}, {"model": grads})
    arrays = [probs, d_logits, params, grads, *optimizer._state["model"],
              *net.parameters().values(), *net.gradients().values()]
    assert {array.dtype for array in arrays} == {np.dtype(np.float64)}
    assert gradient_check(net, x, y) < 1e-6
