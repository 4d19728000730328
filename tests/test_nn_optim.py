import numpy as np
import pytest

from sentprofile.errors import ConfigError, TrainingError
from sentprofile.nn import Adam, SGD, TrainConfig, make_optimizer


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
