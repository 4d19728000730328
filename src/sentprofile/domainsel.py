"""Instance-based source selection for the transfer step.

A source review is kept when the average cosine similarity of its
document vector to all target document vectors strictly exceeds the
threshold z. Selection sees only vectors: it returns the rows it keeps,
and the caller gathers whatever else it holds of those reviews.
"""

import logging

import numpy as np

from .errors import ConfigError, DataError, EmptySelectionError, ShapeError

logger = logging.getLogger(__name__)

DEFAULT_SIMILARITY_THRESHOLD = 0.25


def _normalized_rows(vectors) -> np.ndarray:
    if not len(vectors):
        raise DataError("average similarity needs at least one target vector")
    mat = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return mat / safe


def _mean_cosine(source_vec: np.ndarray, targets: np.ndarray) -> float:
    """Mean cosine of one source vector to the rows of `targets`, which
    `_normalized_rows` made unit length (or left zero)."""
    values = np.asarray(source_vec, dtype=np.float64)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        return 0.0
    if targets.shape[1] != values.shape[0]:
        raise ShapeError(f"source vector length {values.shape[0]} does not match "
                         f"target vector length {targets.shape[1]}")
    return float((targets @ (values / norm)).sum() / len(targets))


def select_source(vectors, target_vecs, z: float) -> np.ndarray:
    """The ascending rows of `vectors`, one (d,) source document vector
    per row, whose average similarity to the rows of `target_vecs`
    strictly exceeds z."""
    if not 0.0 < z < 1.0:
        raise ConfigError(f"similarity threshold must be in (0, 1), got {z}")
    targets = _normalized_rows(target_vecs)
    kept = np.flatnonzero([_mean_cosine(vector, targets) > z
                           for vector in vectors])
    logger.info("similarity selection kept %d of %d source items (z=%g)",
                len(kept), len(vectors), z)
    if not len(kept):
        raise EmptySelectionError(
            f"no source item has average similarity above z={z}; try a lower "
            "threshold")
    return kept
