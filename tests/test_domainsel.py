import numpy as np
import pytest

from sentprofile.domainsel import DEFAULT_SIMILARITY_THRESHOLD, select_source
from sentprofile.errors import (
    ConfigError,
    DataError,
    EmptySelectionError,
    ShapeError,
)
from sentprofile.experiment import SentimentSource

# the gap left between a mean cosine and the thresholds probing it
EPS = 1e-9


def kept(source_values, target_values, z):
    """Whether `select_source` keeps a lone source row with document
    vector `source_values` against these target vectors, i.e. whether its
    mean cosine to them strictly exceeds z."""
    try:
        select_source([np.asarray(source_values, dtype=float)], target_values, z)
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
        with pytest.raises(DataError):
            select_source([np.ones(1)], [], 0.5)

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
        return np.asarray(vectors, dtype=float)

    def test_low_threshold_keeps_all(self):
        source = self.make_set([[1.0, 0.0], [0.9, 0.1], [0.8, 0.3]])
        targets = [[1.0, 0.05]]
        kept = select_source(source, targets, z=0.01)
        assert kept.tolist() == [0, 1, 2]

    def test_kept_rows_ascend(self):
        source = self.make_set([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0],
                                [1.0, 0.1]])
        assert select_source(source, [[1.0, 0.0]], z=0.5).tolist() == [1, 3]

    def test_high_threshold_empty_error(self):
        source = self.make_set([[1.0, 0.0]])
        targets = [[0.0, 1.0]]
        with pytest.raises(EmptySelectionError, match="lower"):
            select_source(source, targets, z=0.9)

    def test_strict_inequality(self):
        # average similarity exactly z must NOT be kept: against one
        # parallel and one orthogonal target the average is 0.5
        source = self.make_set([[1.0, 0.0]])
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
        kept_rows = []
        for z in (0.05, 0.2, 0.5):
            try:
                kept_rows.append(set(select_source(source, targets, z).tolist()))
            except EmptySelectionError:
                kept_rows.append(set())
        assert kept_rows[2] <= kept_rows[1] <= kept_rows[0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(10, 3))
        targets = [rng.normal(size=3) for _ in range(4)]
        base = select_source(self.make_set(vectors), targets, z=0.05)
        for c in (0.5, 2.0, 10.0):
            scaled = vectors.copy()
            scaled[3] *= c
            kept = select_source(self.make_set(scaled), targets, z=0.05)
            assert kept.tolist() == base.tolist()


def labeled(prefix, n, rng, target=1.0):
    """(ids, (length, 2) sequences, targets) of n labelled rows."""
    return ([f"{prefix}{i}" for i in range(n)],
            [rng.normal(size=(int(rng.integers(1, 5)), 2)) for _ in range(n)],
            np.full(n, target))


class TestAugmentWithManual:
    """`SentimentSource.training_set`: the source rows the model may train
    on, extended with the manually labelled target users."""

    def source(self, n_source, n_manual, seed=0, selected=None):
        rng = np.random.default_rng(seed)
        ids, seqs, targets = labeled("s", n_source, rng)
        return SentimentSource(ids=ids, seqs=seqs, targets=targets,
                               selected=selected,
                               manual=labeled("u", n_manual, rng, 0.0))

    def test_empty_manual_is_identity(self):
        source = self.source(3, 0)
        seqs, targets = source.training_set()
        assert all(a is b for a, b in zip(seqs, source.seqs))
        assert len(seqs) == 3 and np.array_equal(targets, source.targets)

    def test_manual_rows_follow_the_source_rows(self):
        source = self.source(10, 3, selected=np.array([1, 4, 7]))
        seqs, targets = source.training_set()
        assert len(seqs) == len(targets) == 6
        assert all(a is source.seqs[i] for a, i in zip(seqs, (1, 4, 7)))
        assert all(a is b for a, b in zip(seqs[3:], source.manual[1]))
        assert targets.tolist() == [1.0] * 3 + [0.0] * 3

    def test_only_training_users_join(self):
        source = self.source(4, 5)
        seqs, targets = source.training_set(["u3", "u1", "absent"])
        manual = source.manual[1]
        assert len(seqs) == len(targets) == 6
        assert seqs[4] is manual[1] and seqs[5] is manual[3]

    def test_never_removes_items(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n_s, n_m = rng.integers(1, 8, size=2)
            seqs, targets = self.source(n_s, n_m, seed=trial).training_set()
            assert len(seqs) == len(targets) == n_s + n_m
