"""Losses used by the classifiers.

Each loss returns (mean loss over the batch, gradient of that mean with
respect to the predicted probabilities). Probabilities are clipped away
from 0 and 1 before taking logs, so saturated predictions stay finite.
Batches stacked over k members, (k, B, C), give one mean per member, with
the bits each member's own (B, C) batch gives.
"""

import numpy as np

from ..errors import ShapeError

_EPS = 1e-12


def _batch_mean(terms: np.ndarray) -> np.ndarray:
    """Each member's (B, C) block summed as one contiguous run, as `.sum()`
    sums a lone 2-D batch, and divided by B."""
    return terms.reshape(*terms.shape[:-2], -1).sum(axis=-1) / terms.shape[-2]


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """probs, targets: (..., B, 1) arrays; targets in {0, 1}."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeError(f"target shape {targets.shape} does not match "
                         f"prediction shape {probs.shape}")
    n = probs.shape[-2]
    p = np.clip(probs, _EPS, 1.0 - _EPS)
    loss = -_batch_mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
    d_probs = (p - targets) / (p * (1.0 - p)) / n
    return loss, d_probs


def categorical_cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """probs, targets: (..., B, C); targets are one-hot rows."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeError(f"target shape {targets.shape} does not match "
                         f"prediction shape {probs.shape}")
    n = probs.shape[-2]
    p = np.clip(probs, _EPS, 1.0)
    loss = -_batch_mean(targets * np.log(p))
    d_probs = -(targets / p) / n
    return loss, d_probs


LOSSES = {
    "binary_cross_entropy": binary_cross_entropy,
    "categorical_cross_entropy": categorical_cross_entropy,
}
