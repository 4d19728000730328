"""Optimizers and the shared training configuration.

`step(params, grads)` takes two mappings of the same names to arrays and
updates each parameter array in place. Every update is elementwise, so a
model's parameters may come as many named arrays or, as `nn.fit` passes
them, as one flat buffer under a single name (a (k, P) buffer for k
models trained in lockstep): all give the same bits. A step computes in
each parameter's dtype: its scalars are Python floats, which numpy's
value-based casting (numpy 1.x) and NEP 50 (numpy 2) both cast to a
float32 array's dtype, so float32 parameters step alike under both.
"""

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


def non_finite(name: str, member: int | None = None) -> TrainingError:
    return TrainingError(f"non-finite gradient for parameter {name!r}; "
                         "training aborted", member)


def _check_finite(name: str, grad: np.ndarray) -> None:
    if not np.isfinite(grad).all():
        raise non_finite(name)


class SGD:
    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)

    def step(self, params, grads) -> None:
        for name, value in params.items():
            grad = grads[name]
            _check_finite(name, grad)
            value -= self.learning_rate * grad


# Adam's moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction.

    Per parameter name it keeps the moments m and v and two scratch arrays
    of the parameter's dtype (float32 for the gender classifiers, float64
    for the sentiment model), so a step allocates nothing and makes one
    pass in that dtype. The update is, in this operation order,
    with b1, b2 and eps being BETA1, BETA2 and EPS,
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps)
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self._state: dict[str, tuple[np.ndarray, ...]] = {}
        self._t = 0

    def step(self, params, grads) -> None:
        self._t += 1
        b1, b2 = BETA1, BETA2
        correct1, correct2 = 1.0 - b1 ** self._t, 1.0 - b2 ** self._t
        for name, value in params.items():
            grad = grads[name]
            _check_finite(name, grad)
            state = self._state.get(name)
            if state is None:
                state = self._state[name] = tuple(np.zeros_like(value)
                                                  for _ in range(4))
            m, v, step, denom = state
            m *= b1
            np.multiply(grad, 1.0 - b1, out=step)
            m += step
            v *= b2
            np.multiply(grad, 1.0 - b2, out=step)
            step *= grad
            v += step
            np.divide(m, correct1, out=step)
            step *= self.learning_rate
            np.divide(v, correct2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            value -= step


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return SGD(config.learning_rate)
    return Adam(config.learning_rate)
