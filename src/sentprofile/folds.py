"""Stratified k-fold planning.

Each class is shuffled and dealt across the folds as evenly as possible;
the leftover items of successive classes start at successive folds so
overall fold sizes never differ by more than one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[tuple[str, ...], ...]

    @property
    def k(self) -> int:
        return len(self.folds)

    def split(self, fold_index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(train_ids, test_ids) for one fold."""
        if not 0 <= fold_index < self.k:
            raise ConfigError(f"fold index {fold_index} out of range 0..{self.k - 1}")
        test = self.folds[fold_index]
        train = tuple(uid for i, fold in enumerate(self.folds)
                      if i != fold_index for uid in fold)
        return train, test


def stratified_kfold(records, k: int, seed: int = 0) -> FoldPlan:
    """Plan k disjoint, exhaustive, class-stratified folds.

    records: (id, class_label) pairs. Fold sizes differ by at most one;
    each class is spread so per-fold class proportions track the global
    ones. Deterministic for a given seed and input order.
    """
    pairs = list(records)
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    ids = [p[0] for p in pairs]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate ids in fold input")

    by_class: dict[str, list[str]] = {}
    for uid, label in pairs:
        by_class.setdefault(label, []).append(uid)
    for label, members in by_class.items():
        if len(members) < k:
            raise DataError(f"class {label!r} has {len(members)} members, "
                            f"fewer than k={k}")

    rng = np.random.default_rng(seed)
    folds: list[list[str]] = [[] for _ in range(k)]
    start = 0
    for label in sorted(by_class):
        members = list(by_class[label])
        order = rng.permutation(len(members))
        base = len(members) // k
        extra = len(members) % k
        pos = 0
        for offset in range(k):
            fold = (start + offset) % k
            take = base + (1 if offset < extra else 0)
            for i in range(pos, pos + take):
                folds[fold].append(members[order[i]])
            pos += take
        # the next class's leftovers start after this class's, keeping
        # total fold sizes within one of each other
        start = (start + extra) % k
    return FoldPlan(folds=tuple(tuple(f) for f in folds))

