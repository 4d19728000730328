"""Minority oversampling.

Each synthetic sample averages the k nearest minority neighbors of a
minority sample x_old before scaling by one random factor:

    x_new = x_old + sigma * (1/k) * sum_i (x_i - x_old),  sigma ~ U[0, 1)

which places x_new on the segment from x_old toward the neighbor centroid.
Synthetic samples are added until both classes are the same size, taking
the minority samples as x_old in turn. Originals are preserved unchanged
and come first in the output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass
class ResampleConfig:
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass
class SyntheticSample:
    values: np.ndarray
    old_index: int            # index into the minority subset
    neighbor_indices: tuple[int, ...]


def _minority(labels: np.ndarray, k: int):
    """(minority class, its row indices in `labels`, the number of
    synthetic rows that bring it level with the majority)."""
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) != 2:
        raise DataError(f"oversampling needs exactly two classes, got "
                        f"{len(classes)}")
    minority_class = classes[np.argmin(counts)]
    minority_count = int(counts.min())
    if k >= minority_count:
        raise DataError(f"k={k} must be smaller than the minority class "
                        f"size {minority_count}")
    return (minority_class, np.flatnonzero(labels == minority_class),
            int(counts.max()) - minority_count)


def _neighbor_table(minority: np.ndarray, k: int) -> np.ndarray:
    """k nearest minority neighbors of each minority sample by Euclidean
    distance, self excluded, distance ties broken by lowest index. One
    row's distances at a time, so the differences held never exceed one
    (n, d) array."""
    n = len(minority)
    dists = np.empty((n, n))
    for i in range(n):
        diffs = minority[i] - minority
        dists[i] = np.einsum("jk,jk->j", diffs, diffs)
    np.fill_diagonal(dists, np.inf)
    order = np.argsort(dists, axis=1, kind="stable")
    return order[:, :k]


def _smote_core(minority: np.ndarray, needed: int,
                config: ResampleConfig) -> list[SyntheticSample]:
    """`needed` synthetic samples from the (n, d) minority rows."""
    if not needed:
        return []
    neighbors = _neighbor_table(minority, config.k)
    sigmas = np.random.default_rng(config.seed).random(needed)
    synthetic = []
    for n, sigma in enumerate(sigmas):
        old = n % len(minority)
        x_old = minority[old]
        synthetic.append(SyntheticSample(
            values=x_old + sigma * (minority[neighbors[old]] - x_old).mean(axis=0),
            old_index=old, neighbor_indices=tuple(neighbors[old].tolist())))
    return synthetic


def smote(samples, labels, config: ResampleConfig | None = None):
    """Oversample the minority class of a two-class vector set.

    Returns (samples, labels) with the originals first, followed by the
    synthesized minority samples that bring both classes to the same size.
    """
    config = config or ResampleConfig()
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ShapeError(f"samples must form a 2-D array, got shape {samples.shape}")
    labels = np.asarray(labels)
    if labels.shape != (samples.shape[0],):
        raise ShapeError("labels must align with samples")
    minority_class, rows, needed = _minority(labels, config.k)
    synthetic = _smote_core(samples[rows], needed, config)
    if not synthetic:
        return samples.copy(), labels.copy()
    out_samples = np.concatenate([samples, np.stack([s.values for s in synthetic])])
    out_labels = np.concatenate([labels, np.full(needed, minority_class,
                                                 dtype=labels.dtype)])
    return out_samples, out_labels
