"""Losses used by the classifiers.

Each loss takes the probabilities its output function gives of a linear
head's logits (`sigmoid` for binary, `softmax` for categorical
cross-entropy) and returns (mean loss over the batch, gradient of that
mean with respect to the logits). For both pairs that gradient is
(probs - targets) / B (Goodfellow, Bengio and Courville, *Deep Learning*,
§6.2.2), which holds where the output saturates. Only the loss value
clips probabilities away from 0 and 1, so its logs stay finite.
Batches stacked over k members, (k, B, C), give one mean per member, with
the bits each member's own (B, C) batch gives.
"""

import numpy as np

from ..errors import ShapeError

_EPS = 1e-12


def _batch(probs, targets) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeError(f"target shape {targets.shape} does not match "
                         f"prediction shape {probs.shape}")
    return probs, targets


def _batch_mean(terms: np.ndarray) -> np.ndarray:
    """Each member's (B, C) block summed as one contiguous run, as `.sum()`
    sums a lone 2-D batch, and divided by B."""
    return terms.reshape(*terms.shape[:-2], -1).sum(axis=-1) / terms.shape[-2]


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """probs, targets: (..., B, 1) arrays; targets in {0, 1}."""
    probs, targets = _batch(probs, targets)
    p = np.clip(probs, _EPS, 1.0 - _EPS)
    loss = -_batch_mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    return loss, (probs - targets) / probs.shape[-2]


def categorical_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """probs, targets: (..., B, C); targets are one-hot rows."""
    probs, targets = _batch(probs, targets)
    loss = -_batch_mean(targets * np.log(np.clip(probs, _EPS, 1.0)))
    return loss, (probs - targets) / probs.shape[-2]
