"""Optimizers and the shared training configuration."""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, TrainingError

OPTIMIZERS = ("sgd", "adam")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, "
                              f"got {self.optimizer!r}")


def _check_finite(name: str, grad: np.ndarray) -> None:
    if not np.isfinite(grad).all():
        raise TrainingError(f"non-finite gradient for parameter {name!r}; "
                            "training aborted")


class SGD:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params, grads) -> None:
        for name, value in params.items():
            grad = grads[name]
            _check_finite(name, grad)
            value -= self.learning_rate * grad


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params, grads) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for name, value in params.items():
            grad = grads[name]
            _check_finite(name, grad)
            if name not in self._m:
                self._m[name] = np.zeros_like(value)
                self._v[name] = np.zeros_like(value)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / (1.0 - b1 ** self._t)
            v_hat = v / (1.0 - b2 ** self._t)
            value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return SGD(config.learning_rate)
    return Adam(config.learning_rate)
