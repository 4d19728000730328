"""Finite-difference verification of analytic gradients: the reference
the tests check every layer's and model's backward pass against."""

import numpy as np

from sentprofile.errors import ConfigError
from sentprofile.nn import (
    binary_cross_entropy,
    categorical_cross_entropy,
    sigmoid,
    softmax,
)

# each loss with the output function whose logits its gradient is taken at
OUTPUTS = {"binary_cross_entropy": (binary_cross_entropy, sigmoid),
           "categorical_cross_entropy": (categorical_cross_entropy, softmax)}


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
    """Gradient check for any model exposing forward/backward/parameters
    whose forward returns logits: the loss reads the probabilities of its
    output function (see OUTPUTS), and backward takes the loss's gradient
    at the logits.

    Runs training forwards with every dropout layer of the model (its
    `dropout_layers()`, where it has them) at rate 0, restored afterwards:
    the deterministic computation graph, with the backward caches a
    training forward keeps. `lengths` is forwarded to models whose forward
    pass needs per-sample sequence lengths.
    """
    if not 1e-6 <= epsilon <= 1e-4:
        raise ConfigError(f"epsilon must be in [1e-6, 1e-4], got {epsilon}")
    if loss not in OUTPUTS:
        raise ConfigError(f"unknown loss {loss!r}")
    loss_fn, output = OUTPUTS[loss]

    def run_forward():
        if lengths is None:
            return output(model.forward(x, training=True))
        return output(model.forward(x, lengths, training=True))

    def loss_value():
        value, _ = loss_fn(run_forward(), target)
        return value

    dropouts = model.dropout_layers() if hasattr(model, "dropout_layers") else []
    rates = [layer.rate for layer in dropouts]
    for layer in dropouts:
        layer.rate = 0.0
    try:
        _, d_logits = loss_fn(run_forward(), target)
        model.backward(d_logits)
        analytic = {name: grad.copy()
                    for name, grad in model.gradients().items()}
        return max_relative_error(loss_value, model.parameters(), analytic,
                                  epsilon)
    finally:
        for layer, rate in zip(dropouts, rates):
            layer.rate = rate
