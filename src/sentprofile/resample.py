"""Minority oversampling.

The default "paper" variant averages the k nearest minority neighbors
before scaling by one random factor:

    x_new = x_old + sigma * (1/k) * sum_i (x_i - x_old),  sigma ~ U[0, 1)

which places x_new on the segment from x_old toward the neighbor centroid.
The "classic" variant interpolates toward a single randomly chosen
neighbor among the k instead. Originals are preserved unchanged and come
first in the output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

VARIANTS = ("paper", "classic")


@dataclass
class ResampleConfig:
    k: int = 5
    target_ratio: float = 1.0
    seed: int = 0
    variant: str = "paper"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.target_ratio <= 0:
            raise ConfigError(f"target_ratio must be > 0, got {self.target_ratio}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, "
                              f"got {self.variant!r}")


@dataclass
class SyntheticSample:
    values: np.ndarray
    old_index: int            # index into the minority subset
    neighbor_indices: tuple[int, ...]


# rows of the distance table computed at once: the differences of a block
# take NEIGHBOR_BLOCK * n * d floats instead of the full table's n * n * d
NEIGHBOR_BLOCK = 8


def _neighbor_table(minority: np.ndarray, k: int) -> np.ndarray:
    """k nearest minority neighbors of each minority sample by Euclidean
    distance, self excluded, distance ties broken by lowest index."""
    n = len(minority)
    dists = np.empty((n, n))
    for start in range(0, n, NEIGHBOR_BLOCK):
        rows = slice(start, start + NEIGHBOR_BLOCK)
        diffs = minority[rows, None, :] - minority[None, :, :]
        dists[rows] = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(dists, np.inf)
    order = np.argsort(dists, axis=1, kind="stable")
    return order[:, :k]


def interpolate(x_old: np.ndarray, neighbors: np.ndarray, sigma: float) -> np.ndarray:
    """One synthetic point: x_old stepped by sigma toward the mean offset
    of its neighbors, i.e. (1 - sigma) * x_old + sigma * centroid."""
    x_old = np.asarray(x_old, dtype=np.float64)
    neighbors = np.atleast_2d(np.asarray(neighbors, dtype=np.float64))
    if neighbors.shape[1:] != x_old.shape:
        raise ShapeError(f"neighbors of shape {neighbors.shape} do not match "
                         f"sample of shape {x_old.shape}")
    return x_old + sigma * (neighbors - x_old).mean(axis=0)


def _smote_core(samples: np.ndarray, labels: np.ndarray,
                config: ResampleConfig) -> list[SyntheticSample]:
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) != 2:
        raise DataError(f"oversampling needs exactly two classes, got "
                        f"{len(classes)}")
    if counts.min() == 0:
        raise DataError("one class is empty")
    minority_class = classes[np.argmin(counts)]
    minority_idx = np.flatnonzero(labels == minority_class)
    majority_count = int(counts.max())
    minority_count = int(counts.min())
    if config.k >= minority_count:
        raise DataError(f"k={config.k} must be smaller than the minority class "
                        f"size {minority_count}")
    current_ratio = minority_count / majority_count
    if config.target_ratio < current_ratio - 1e-12:
        raise ConfigError(f"target_ratio {config.target_ratio} is below the "
                          f"current minority/majority ratio {current_ratio:.4f}")
    needed = int(round(config.target_ratio * majority_count)) - minority_count
    if needed <= 0:
        return []

    minority = samples[minority_idx]
    neighbors = _neighbor_table(minority, config.k)
    rng = np.random.default_rng(config.seed)
    synthetic = []
    for n in range(needed):
        old = n % minority_count
        sigma = float(rng.random())
        if config.variant == "classic":
            used = (int(neighbors[old, rng.integers(0, config.k)]),)
        else:
            used = tuple(int(j) for j in neighbors[old])
        synthetic.append(SyntheticSample(
            values=interpolate(minority[old], minority[list(used)], sigma),
            old_index=old, neighbor_indices=used))
    return synthetic


def smote(samples, labels, config: ResampleConfig | None = None):
    """Oversample the minority class of a two-class vector set.

    Returns (samples, labels) with the originals first, followed by the
    synthesized minority samples, until minority/majority reaches
    config.target_ratio.
    """
    config = config or ResampleConfig()
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ShapeError(f"samples must form a 2-D array, got shape {samples.shape}")
    labels = np.asarray(labels)
    if labels.shape != (samples.shape[0],):
        raise ShapeError("labels must align with samples")
    synthetic = _smote_core(samples, labels, config)
    if not synthetic:
        return samples.copy(), labels.copy()
    classes, counts = np.unique(labels, return_counts=True)
    minority_class = classes[np.argmin(counts)]
    new_rows = np.stack([s.values for s in synthetic])
    out_samples = np.concatenate([samples, new_rows])
    out_labels = np.concatenate([labels, np.full(len(synthetic), minority_class,
                                                 dtype=labels.dtype)])
    return out_samples, out_labels
