"""Finite-difference verification of analytic gradients: the reference
the tests check every layer's and model's backward pass against."""

import numpy as np

from sentprofile.errors import ConfigError
from sentprofile.nn import LOSSES


def max_relative_error(loss_fn, params, analytic, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn() must evaluate the scalar loss at the current parameter
    values; params maps names to the live arrays perturbed in place;
    analytic maps the same names to the analytic gradients. Returns
    max over components of |a - n| / max(|a|, |n|, 1e-8).
    """
    worst = 0.0
    for name, value in params.items():
        flat = value.reshape(-1)
        grad = np.asarray(analytic[name]).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            loss_plus = loss_fn()
            flat[idx] = orig - epsilon
            loss_minus = loss_fn()
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            denom = max(abs(grad[idx]), abs(numeric), 1e-8)
            err = abs(grad[idx] - numeric) / denom
            if err > worst:
                worst = err
    return worst


def gradient_check(model, x, target, loss: str = "categorical_cross_entropy",
                   epsilon: float = 1e-5, lengths=None) -> float:
    """Gradient check for any model exposing forward/backward/parameters.

    Runs in inference mode (dropout is the identity), so the check covers
    exactly the deterministic computation graph. `lengths` is forwarded to
    models whose forward pass needs per-sample sequence lengths.
    """
    if not 1e-6 <= epsilon <= 1e-4:
        raise ConfigError(f"epsilon must be in [1e-6, 1e-4], got {epsilon}")
    loss_fn_pair = LOSSES.get(loss)
    if loss_fn_pair is None:
        raise ConfigError(f"unknown loss {loss!r}")

    def run_forward():
        if lengths is None:
            return model.forward(x, training=False)
        return model.forward(x, lengths, training=False)

    probs = run_forward()
    _, d_probs = loss_fn_pair(probs, target)
    model.backward(d_probs)
    analytic = {name: grad.copy() for name, grad in model.gradients().items()}

    def loss_value():
        value, _ = loss_fn_pair(run_forward(), target)
        return value

    return max_relative_error(loss_value, model.parameters(), analytic, epsilon)
