import numpy as np
import pytest

from sentprofile.errors import ConfigError, TrainingError
from sentprofile.gender import GenderModel
from sentprofile.nn import (
    SGD,
    Adam,
    LSTMLayer,
    TrainConfig,
    binary_cross_entropy,
    categorical_cross_entropy,
    fit,
    make_optimizer,
)
from sentprofile.sentiment import FinetuneModel, SentimentModel


class TestTrainConfig:
    def test_valid(self):
        config = TrainConfig(epochs=10, batch_size=8, learning_rate=0.01)
        assert config.optimizer == "adam"

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"epochs": 5, "batch_size": 0},
        {"epochs": 5, "learning_rate": 0.0},
        {"epochs": 5, "learning_rate": -1.0},
        {"epochs": 5, "optimizer": "momentum"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestSGD:
    def test_update_arithmetic(self):
        params = {"theta": np.array([1.0])}
        grads = {"theta": np.array([2.0])}
        SGD(learning_rate=0.1).step(params, grads)
        assert params["theta"][0] == pytest.approx(0.8)

    def test_zero_gradient_fixed_point(self):
        params = {"theta": np.array([3.0, -2.0])}
        SGD(0.5).step(params, {"theta": np.zeros(2)})
        assert np.array_equal(params["theta"], np.array([3.0, -2.0]))

    def test_nan_aborts(self):
        with pytest.raises(TrainingError, match="theta"):
            SGD(0.1).step({"theta": np.ones(2)},
                          {"theta": np.array([1.0, np.nan])})


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # bias-corrected first step with unit gradient moves by ~lr
        params = {"theta": np.zeros(4)}
        grads = {"theta": np.ones(4)}
        Adam(learning_rate=0.01).step(params, grads)
        assert np.allclose(np.abs(params["theta"]), 0.01, rtol=1e-6)

    def test_infinite_gradient_aborts(self):
        with pytest.raises(TrainingError):
            Adam(0.01).step({"w": np.ones(1)}, {"w": np.array([np.inf])})

    def test_state_per_parameter(self):
        opt = Adam(0.1)
        params = {"a": np.zeros(1), "b": np.zeros(1)}
        opt.step(params, {"a": np.ones(1), "b": -np.ones(1)})
        opt.step(params, {"a": np.ones(1), "b": -np.ones(1)})
        assert params["a"][0] < 0 < params["b"][0]


def test_make_optimizer_dispatch():
    assert isinstance(make_optimizer(TrainConfig(epochs=1, optimizer="sgd")), SGD)
    assert isinstance(make_optimizer(TrainConfig(epochs=1)), Adam)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_buffer_step_matches_named_arrays(optimizer):
    # every update is elementwise, so one pass over the concatenation gives
    # the bits of one pass per named array
    rng = np.random.default_rng(3)
    shapes = {"w": (5, 4), "b": (4,), "u": (4, 2)}
    named = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    flat = np.concatenate([v.ravel() for v in named.values()])
    config = TrainConfig(epochs=1, learning_rate=3e-3, optimizer=optimizer)
    per_array, one_pass = make_optimizer(config), make_optimizer(config)
    for _ in range(20):
        grads = {name: rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=shape)
                 for name, shape in shapes.items()}
        per_array.step(named, grads)
        one_pass.step({"all": flat},
                      {"all": np.concatenate([g.ravel() for g in grads.values()])})
    assert np.concatenate([v.ravel() for v in named.values()]).tobytes() \
        == flat.tobytes()


def poison_after_backward(layer, name, value):
    """Make `layer.backward` leave `value` in the gradient of `name`,
    written through the layer's `grads` entry."""
    backward = layer.backward

    def poisoned(d_out):
        out = backward(d_out)
        layer.grads[name].flat[0] = value
        return out
    layer.backward = poisoned


def gender_case():
    model = GenderModel(input_dim=3, hidden=(4, 3))
    inputs = (np.random.default_rng(0).normal(size=(10, 3)),)
    return model, inputs, np.eye(2)[np.arange(10) % 2], categorical_cross_entropy


def sentiment_case():
    rng = np.random.default_rng(0)
    inputs = (rng.normal(size=(10, 4, 3)), rng.integers(1, 5, size=10))
    return (SentimentModel(input_dim=3, hidden_size=2), inputs,
            (np.arange(10) % 2)[:, None] * 1.0, binary_cross_entropy)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("case, layer_of, grad, value, name", [
    pytest.param(gender_case, lambda m: m.network.layers[0], "weights",
                 np.nan, "layer0.weights", id="layer0.weights"),
    pytest.param(gender_case, lambda m: m.network.layers[3], "bias",
                 -np.inf, "layer3.bias", id="layer3.bias"),
    pytest.param(sentiment_case, lambda m: m.lstm, "w_h", np.inf,
                 "lstm.w_h", id="lstm.w_h"),
])
def test_fit_names_the_non_finite_parameter(optimizer, case, layer_of, grad,
                                            value, name):
    model, inputs, targets, loss = case()
    poison_after_backward(layer_of(model), grad, value)
    with pytest.raises(TrainingError, match=f"'{name}'"):
        fit([model], [inputs], [targets], loss,
            TrainConfig(epochs=1, batch_size=4, optimizer=optimizer),
            [np.random.default_rng(0)])


def test_fit_trains_views_of_one_buffer_per_model():
    rng = np.random.default_rng(1)
    mats, lengths = rng.normal(size=(10, 4, 3)), rng.integers(1, 5, size=10)
    composite = (FinetuneModel(LSTMLayer(3, 2, rng=rng), vec_dim=2, hidden=(4, 3)),
                 (rng.normal(size=(10, 2)), mats, lengths),
                 np.eye(2)[np.arange(10) % 2], categorical_cross_entropy)
    for model, inputs, targets, loss in (gender_case(), sentiment_case(),
                                         composite):
        before = np.concatenate([v.ravel() for v in model.parameters().values()])
        fit([model], [inputs], [targets], loss,
            TrainConfig(epochs=2, batch_size=4), [np.random.default_rng(0)])
        params, grads = model.buffers()
        assert model.buffers()[0] is params
        assert params.size == grads.size == before.size
        for value in model.parameters().values():
            assert np.shares_memory(value, params)
        for grad in model.gradients().values():
            assert np.shares_memory(grad, grads)
        assert np.array_equal(
            np.concatenate([v.ravel() for v in model.parameters().values()]),
            params)
        assert not np.array_equal(params, before)
