"""Instance-based source selection for the transfer step.

A source item is kept when its average cosine similarity to all target
document vectors strictly exceeds the threshold z; manually labeled target
samples may then be merged into the selected set.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DuplicateKeyError,
    EmptySelectionError,
    ShapeError,
)

logger = logging.getLogger(__name__)

PROVENANCES = ("source", "manual_target")
DEFAULT_SIMILARITY_THRESHOLD = 0.25


@dataclass(frozen=True)
class LabeledItem:
    item_id: str
    matrix: np.ndarray  # (length, d) word vectors, see `embed.doc_matrix`
    vector: np.ndarray  # (d,) mean word vector, see `embed.doc_vector`
    polarity: str
    provenance: str = "source"


@dataclass(frozen=True)
class LabeledDomainSet:
    items: tuple[LabeledItem, ...]

    def __len__(self) -> int:
        return len(self.items)

    def validate(self) -> None:
        for item in self.items:
            if item.polarity not in ("positive", "negative"):
                raise DataError(f"item {item.item_id!r} has no valid polarity")
            if item.provenance not in PROVENANCES:
                raise DataError(f"item {item.item_id!r} has unknown provenance "
                                f"{item.provenance!r}")
        _check_dimension(self.items)


def _check_dimension(items) -> None:
    """Items may differ in length but not in word-vector dimension."""
    if items:
        d = items[0].matrix.shape[1]
        for item in items:
            if item.matrix.shape[1] != d:
                raise ShapeError(f"item {item.item_id!r} has word vectors of "
                                 f"dimension {item.matrix.shape[1]}, expected {d}")


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


def select_source(source: LabeledDomainSet, target_vecs,
                  z: float) -> LabeledDomainSet:
    """Keep the items whose average similarity strictly exceeds z;
    `target_vecs` holds one (d,) target document vector per row."""
    if not 0.0 < z < 1.0:
        raise ConfigError(f"similarity threshold must be in (0, 1), got {z}")
    targets = _normalized_rows(target_vecs)
    kept = tuple(item for item in source.items
                 if _mean_cosine(item.vector, targets) > z)
    logger.info("similarity selection kept %d of %d source items (z=%g)",
                len(kept), len(source), z)
    if not kept:
        raise EmptySelectionError(
            f"no source item has average similarity above z={z}; try a lower "
            "threshold")
    return LabeledDomainSet(items=kept)


def augment_with_manual(source: LabeledDomainSet,
                        manual: LabeledDomainSet) -> LabeledDomainSet:
    """Union of the source set with manually labeled target samples."""
    for item in manual.items:
        if item.provenance != "manual_target":
            raise DataError(f"manual item {item.item_id!r} has provenance "
                            f"{item.provenance!r}, expected 'manual_target'")
    _check_dimension(source.items[:1] + manual.items)
    source_ids = {item.item_id for item in source.items}
    for item in manual.items:
        if item.item_id in source_ids:
            raise DuplicateKeyError(f"manual item {item.item_id!r} duplicates a "
                                    "source item")
    return LabeledDomainSet(items=source.items + manual.items)
