import numpy as np
import pytest

from sentprofile.domainsel import (
    DEFAULT_SIMILARITY_THRESHOLD,
    LabeledDomainSet,
    LabeledItem,
    augment_with_manual,
    select_source,
)
from sentprofile.errors import (
    ConfigError,
    DataError,
    DuplicateKeyError,
    EmptySelectionError,
    ShapeError,
)

# the gap left between a mean cosine and the thresholds probing it
EPS = 1e-9


def item(item_id, values, polarity="positive", provenance="source",
         matrix=None):
    """A labeled item whose document vector is `values`; its word-vector
    sequence defaults to that vector as a single step."""
    values = np.asarray(values, dtype=float)
    return LabeledItem(item_id=item_id,
                       matrix=values[None, :] if matrix is None else matrix,
                       vector=values,
                       polarity=polarity, provenance=provenance)


def kept(source_values, target_values, z):
    """Whether `select_source` keeps a lone item with document vector
    `source_values` against these target vectors, i.e. whether its mean
    cosine to them strictly exceeds z."""
    source = LabeledDomainSet(items=(item("s", source_values),))
    try:
        select_source(source, target_values, z)
    except EmptySelectionError:
        return False
    return True


def cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestCosine:
    """The cosine selection scores an item by, seen through one target."""

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.normal(size=5)
            assert kept(v, [v], 1.0 - EPS)

    def test_orthogonal(self):
        assert not kept([1.0, 0.0], [[0.0, 1.0]], EPS)

    def test_45_degrees(self):
        assert kept([1.0, 0.0], [[1.0, 1.0]], 1 / np.sqrt(2) - EPS)
        assert not kept([1.0, 0.0], [[1.0, 1.0]], 1 / np.sqrt(2) + EPS)
        assert kept([1.0, 0.0], [[1.0, 1.0]], 0.70710)
        assert not kept([1.0, 0.0], [[1.0, 1.0]], 0.70712)

    def test_zero_norm_convention(self):
        # a zero vector on either side scores cosine 0; a zero target still
        # counts in the mean's divisor
        assert not kept(np.zeros(3), [np.ones(3)], EPS)
        assert kept([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], 0.5 - EPS)
        assert not kept([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], 0.5 + EPS)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            kept(np.ones(2), [np.ones(3)], 0.5)

    def test_range(self):
        # one-target selection keeps an item exactly when the cosine, which
        # lies in [-1, 1], exceeds z
        rng = np.random.default_rng(1)
        for _ in range(100):
            u, v = rng.normal(size=4), rng.normal(size=4)
            value = cosine(u, v)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
            for z in (0.05, 0.3, 0.6, 0.9):
                if abs(value - z) > EPS:
                    assert kept(u, [v], z) == (value > z)


class TestAvgSimilarity:
    """The mean cosine to every target, which selection compares with z."""

    def test_identical_single_target(self):
        assert kept([0.3, 0.4], [[0.3, 0.4]], 1.0 - EPS)

    def test_mixed_targets(self):
        targets = [[1.0, 0.0], [0.0, 1.0]]
        assert kept([1.0, 0.0], targets, 0.5 - EPS)
        assert not kept([1.0, 0.0], targets, 0.5 + EPS)

    def test_zero_source(self):
        assert not kept([0.0, 0.0], [[1.0, 0.0]], EPS)

    def test_empty_targets(self):
        source = LabeledDomainSet(items=(item("s", [1.0]),))
        with pytest.raises(DataError):
            select_source(source, [], 0.5)

    def test_matches_elementwise_cosine_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            source = rng.normal(size=4)
            targets = rng.normal(size=(7, 4))
            expected = np.mean([cosine(source, t) for t in targets])
            if expected < 0:
                source, expected = -source, -expected
            assert kept(source, targets, expected - EPS)
            assert not kept(source, targets, expected + EPS)


class TestSelectSource:
    def make_set(self, vectors):
        return LabeledDomainSet(items=tuple(
            item(f"i{k}", v) for k, v in enumerate(vectors)))

    def test_low_threshold_keeps_all(self):
        source = self.make_set([[1.0, 0.0], [0.9, 0.1], [0.8, 0.3]])
        targets = [[1.0, 0.05]]
        kept = select_source(source, targets, z=0.01)
        assert len(kept) == 3
        assert [i.item_id for i in kept.items] == ["i0", "i1", "i2"]

    def test_high_threshold_empty_error(self):
        source = self.make_set([[1.0, 0.0]])
        targets = [[0.0, 1.0]]
        with pytest.raises(EmptySelectionError, match="lower"):
            select_source(source, targets, z=0.9)

    def test_strict_inequality(self):
        # average similarity exactly z must NOT be kept
        source = self.make_set([[1.0, 0.0]])
        targets = [[1.0, 0.0], [-1.0, 0.0]]
        # avg = (1 - 1) / 2 = 0 < any z; with orthogonal second target avg = 0.5
        targets = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(EmptySelectionError):
            select_source(source, targets, z=0.5)

    def test_z_validated(self):
        source = self.make_set([[1.0, 0.0]])
        for z in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                select_source(source, [[1.0, 0.0]], z=z)

    def test_default_threshold_constant(self):
        from sentprofile.experiment import ExperimentConfig

        assert DEFAULT_SIMILARITY_THRESHOLD == 0.25
        assert ExperimentConfig().z == DEFAULT_SIMILARITY_THRESHOLD

    def test_monotonicity_in_z(self):
        rng = np.random.default_rng(3)
        source = self.make_set(rng.normal(size=(20, 3)))
        targets = [rng.normal(size=3) for _ in range(5)]
        kept_ids = []
        for z in (0.05, 0.2, 0.5):
            try:
                kept = select_source(source, targets, z)
                kept_ids.append({i.item_id for i in kept.items})
            except EmptySelectionError:
                kept_ids.append(set())
        assert kept_ids[2] <= kept_ids[1] <= kept_ids[0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(10, 3))
        targets = [rng.normal(size=3) for _ in range(4)]
        base = select_source(self.make_set(vectors), targets, z=0.05)
        base_ids = {i.item_id for i in base.items}
        for c in (0.5, 2.0, 10.0):
            scaled = vectors.copy()
            scaled[3] *= c
            kept = select_source(self.make_set(scaled), targets, z=0.05)
            assert {i.item_id for i in kept.items} == base_ids


class TestAugmentWithManual:
    def test_empty_manual_is_identity(self):
        source = LabeledDomainSet(items=(item("a", [1.0, 0.0]),))
        out = augment_with_manual(source, LabeledDomainSet(items=()))
        assert out.items == source.items

    def test_cardinality_and_provenance(self):
        source = LabeledDomainSet(items=tuple(
            item(f"s{i}", [1.0, float(i)]) for i in range(10)))
        manual = LabeledDomainSet(items=tuple(
            item(f"m{i}", [0.0, float(i)], provenance="manual_target")
            for i in range(3)))
        out = augment_with_manual(source, manual)
        assert len(out) == 13
        flagged = [i for i in out.items if i.provenance == "manual_target"]
        assert len(flagged) == 3

    def test_duplicate_id_rejected(self):
        source = LabeledDomainSet(items=(item("x", [1.0, 0.0]),))
        manual = LabeledDomainSet(items=(
            item("x", [0.0, 1.0], provenance="manual_target"),))
        with pytest.raises(DuplicateKeyError):
            augment_with_manual(source, manual)

    def test_shape_mismatch_rejected(self):
        # sequences may differ in length, not in word-vector dimension
        source = LabeledDomainSet(items=(
            item("a", [1.0, 0.0], matrix=np.ones((3, 2))),))
        manual = LabeledDomainSet(items=(
            item("m", [1.0, 0.0], provenance="manual_target",
                 matrix=np.ones((5, 2))),
            item("n", [1.0, 0.0], provenance="manual_target",
                 matrix=np.ones((3, 4)))))
        with pytest.raises(ShapeError, match="'n'"):
            augment_with_manual(source, manual)
        assert len(augment_with_manual(
            source, LabeledDomainSet(items=manual.items[:1]))) == 2

    def test_wrong_provenance_rejected(self):
        source = LabeledDomainSet(items=(item("a", [1.0, 0.0]),))
        manual = LabeledDomainSet(items=(item("m", [1.0, 0.0]),))
        with pytest.raises(DataError, match="provenance"):
            augment_with_manual(source, manual)

    def test_never_removes_items(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n_s, n_m = rng.integers(1, 8, size=2)
            source = LabeledDomainSet(items=tuple(
                item(f"s{i}", rng.normal(size=2)) for i in range(n_s)))
            manual = LabeledDomainSet(items=tuple(
                item(f"m{i}", rng.normal(size=2), provenance="manual_target")
                for i in range(n_m)))
            assert len(augment_with_manual(source, manual)) == n_s + n_m


class TestValidate:
    def test_different_lengths_validate(self):
        data = LabeledDomainSet(items=tuple(
            item(f"i{n}", [1.0, 0.0], matrix=np.ones((n, 2)))
            for n in (1, 4, 2)))
        data.validate()

    def test_different_dimension_rejected(self):
        data = LabeledDomainSet(items=(
            item("a", [1.0, 0.0], matrix=np.ones((2, 2))),
            item("b", [1.0, 0.0], matrix=np.ones((2, 3)))))
        with pytest.raises(ShapeError, match="'b'"):
            data.validate()
