"""Losses used by the classifiers.

Each loss takes the probabilities its output function gives of a linear
head's logits (`sigmoid` for binary, `softmax` for categorical
cross-entropy) and returns (mean loss over the batch, gradient of that
mean with respect to the logits). For both pairs that gradient is
(probs - targets) / B (Goodfellow, Bengio and Courville, *Deep Learning*,
§6.2.2), which holds where the output saturates. Only the loss value
clips probabilities away from 0 and 1, so its logs stay finite.
Batches stacked over k members, (k, B, C), give one mean per member, with
the bits each member's own (B, C) batch gives. Float32 probabilities give
a float32 loss and gradient, any others float64.
"""

import numpy as np

from ..errors import ShapeError
from .layers import _float_input

_EPS = 1e-12


def _batch(probs, targets) -> tuple[np.ndarray, np.ndarray]:
    probs = _float_input(probs)
    targets = np.asarray(targets, dtype=probs.dtype)
    if probs.shape != targets.shape:
        raise ShapeError(f"target shape {targets.shape} does not match "
                         f"prediction shape {probs.shape}")
    return probs, targets


def _batch_mean(terms: np.ndarray) -> np.ndarray:
    """Each member's (B, C) block summed as one contiguous run, as `.sum()`
    sums a lone 2-D batch, and divided by B in the terms' dtype (numpy 1.x
    would widen a lone batch's float32 scalar sum over the int B)."""
    return np.divide(terms.reshape(*terms.shape[:-2], -1).sum(axis=-1),
                     terms.shape[-2], dtype=terms.dtype)


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """probs, targets: (..., B, 1) arrays; targets in {0, 1}."""
    probs, targets = _batch(probs, targets)
    # 1 - _EPS rounds to 1 in float32, whose largest value below 1 is
    # 1 - epsneg
    upper = 1.0 - max(_EPS, float(np.finfo(probs.dtype).epsneg))
    p = np.clip(probs, _EPS, upper)
    loss = -_batch_mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    return loss, (probs - targets) / probs.shape[-2]


def categorical_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """probs, targets: (..., B, C); targets are one-hot rows."""
    probs, targets = _batch(probs, targets)
    loss = -_batch_mean(targets * np.log(np.clip(probs, _EPS, 1.0)))
    return loss, (probs - targets) / probs.shape[-2]
