import tracemalloc

import numpy as np
import pytest

from sentprofile.errors import ConfigError, DataError
from sentprofile.experiment import smote_sequences
from sentprofile.resample import ResampleConfig, _neighbor_table, smote


def two_class_set(rng, n_minority=8, n_majority=20, dim=3):
    minority = rng.normal(size=(n_minority, dim))
    majority = rng.normal(size=(n_majority, dim)) + 4.0
    samples = np.concatenate([minority, majority])
    labels = np.array([0] * n_minority + [1] * n_majority)
    return samples, labels


class TestSmote:
    def test_balances_exactly(self):
        rng = np.random.default_rng(1)
        samples, labels = two_class_set(rng)
        out_x, out_y = smote(samples, labels, ResampleConfig(k=3, seed=0))
        assert (out_y == 0).sum() == (out_y == 1).sum() == 20

    def test_originals_preserved_first(self):
        rng = np.random.default_rng(2)
        samples, labels = two_class_set(rng)
        out_x, out_y = smote(samples, labels, ResampleConfig(k=3, seed=0))
        assert np.array_equal(out_x[:len(samples)], samples)
        assert np.array_equal(out_y[:len(labels)], labels)

    def test_already_balanced_noop(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(10, 2))
        labels = np.array([0] * 5 + [1] * 5)
        out_x, out_y = smote(samples, labels, ResampleConfig(k=2, seed=0))
        assert np.array_equal(out_x, samples)
        assert np.array_equal(out_y, labels)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        samples, labels = two_class_set(rng)
        a = smote(samples, labels, ResampleConfig(k=3, seed=9))
        b = smote(samples, labels, ResampleConfig(k=3, seed=9))
        assert np.array_equal(a[0], b[0])

    def test_k_too_large(self):
        rng = np.random.default_rng(5)
        samples, labels = two_class_set(rng, n_minority=4)
        with pytest.raises(DataError, match="k=5"):
            smote(samples, labels, ResampleConfig(k=5, seed=0))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            smote(np.zeros((4, 2)), np.zeros(4), ResampleConfig(k=1))

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError, match="k must be >= 1"):
            ResampleConfig(k=0)

    def test_sigmas_are_the_seeded_stream_in_order(self):
        # synthetic row n steps minority row n % n_min by the n-th draw of
        # the seed's generator toward the centroid of its k neighbors
        rng = np.random.default_rng(13)
        samples, labels = two_class_set(rng, n_minority=4, n_majority=11)
        k, seed = 2, 21
        out_x, _ = smote(samples, labels, ResampleConfig(k=k, seed=seed))
        minority = samples[labels == 0]
        table = _neighbor_table(minority, k)
        draws = np.random.default_rng(seed)
        for n, point in enumerate(out_x[len(samples):]):
            old = n % len(minority)
            sigma = draws.random()
            expected = minority[old] + sigma * (
                minority[table[old]] - minority[old]).mean(axis=0)
            assert point.tobytes() == expected.tobytes()

    def test_synthetic_points_in_convex_hull_segment(self):
        # every synthetic point must sit on a segment from some minority
        # point toward the centroid of its k nearest minority neighbors
        rng = np.random.default_rng(6)
        samples, labels = two_class_set(rng, n_minority=10, n_majority=25)
        k = 4
        out_x, out_y = smote(samples, labels, ResampleConfig(k=k, seed=3))
        minority = samples[labels == 0]
        diffs = minority[:, None, :] - minority[None, :, :]
        dists = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(dists, np.inf)
        centroids = np.stack([
            minority[np.argsort(row, kind="stable")[:k]].mean(axis=0)
            for row in dists])
        for point in out_x[len(samples):]:
            found = False
            for x_old, centroid in zip(minority, centroids):
                direction = centroid - x_old
                denom = direction @ direction
                if denom == 0.0:
                    if np.allclose(point, x_old, atol=1e-12):
                        found = True
                        break
                    continue
                sigma = (point - x_old) @ direction / denom
                if -1e-12 <= sigma < 1.0 and np.allclose(
                        point, x_old + sigma * direction, atol=1e-12):
                    found = True
                    break
            assert found


def full_neighbor_order(minority):
    """Neighbor order from the whole (n, n, d) difference tensor at once:
    the reference the row-at-a-time table must match."""
    diffs = minority[:, None, :] - minority[None, :, :]
    dists = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(dists, np.inf)
    return np.argsort(dists, axis=1, kind="stable")


class TestNeighborTable:
    @pytest.mark.parametrize("n, d", [(100, 1944), (60, 30), (37, 500)])
    def test_matches_full_tensor(self, n, d):
        minority = np.random.default_rng(n + d).normal(size=(n, d))
        table = _neighbor_table(minority, n - 1)
        assert table.tobytes() == full_neighbor_order(minority)[:, :n - 1].tobytes()

    def test_ties_break_by_lowest_index(self):
        # integer lattice points, each twice: many equal distances in every
        # row
        lattice = np.array([[x, y] for x in range(3) for y in range(3)],
                           dtype=float)
        minority = np.concatenate([lattice, lattice])
        n = len(minority)
        table = _neighbor_table(minority, n - 1)
        assert table.tobytes() == full_neighbor_order(minority)[:, :n - 1].tobytes()
        # the centre's duplicate is its unique nearest neighbor; its eight
        # axis neighbors (four points, two copies each) follow in index order
        assert list(table[4, :9]) == [13, 1, 3, 5, 7, 10, 12, 14, 16]

    def test_memory_bounded_by_a_few_rows_of_differences(self):
        # the (n, n) distances plus one (n, d) row of differences at a time,
        # far below the (n, n, d) tensor of all pairwise differences
        n, d = 60, 9400
        minority = np.random.default_rng(0).normal(size=(n, d))
        tracemalloc.start()
        try:
            _neighbor_table(minority, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * d * 8


def make_sequences(rng, n, vec_dim=2, steps=4, dim=2, lengths=None):
    """Base vectors plus zero-padded (n, steps, dim) sequences."""
    vecs = rng.normal(size=(n, vec_dim))
    mats = np.zeros((n, steps, dim))
    if lengths is None:
        lengths = rng.integers(1, steps + 1, size=n)
    lengths = np.asarray(lengths)
    for i, eff in enumerate(lengths):
        mats[i, :eff] = rng.normal(size=(eff, dim))
    return vecs, mats, lengths


class TestSmoteMatrices:
    """Oversampling of (base vector, document matrix) pairs in their joint
    space, as the finetuned pipeline runs it."""

    def test_reshape_matches_vector_space(self):
        rng = np.random.default_rng(9)
        vecs, mats, lengths = make_sequences(rng, 12)
        labels = np.array([0] * 4 + [1] * 8)
        config = ResampleConfig(k=2, seed=4)
        out_vecs, out_mats, _, out_labels = smote_sequences(
            vecs, mats, lengths, labels, config)
        flat = np.concatenate([vecs, mats.reshape(12, -1)], axis=1)
        vec_x, vec_y = smote(flat, labels, config)
        assert out_mats.shape == (vec_x.shape[0], *mats.shape[1:])
        joint = np.concatenate([out_vecs, out_mats.reshape(len(out_mats), -1)],
                               axis=1)
        assert np.array_equal(joint, vec_x)
        assert np.array_equal(out_labels, vec_y)

    def test_synthetic_effective_length_is_max_of_contributors(self):
        rng = np.random.default_rng(10)
        lengths = [1, 2, 3, 4, 4, 4, 4, 4, 4]
        vecs, mats, lengths = make_sequences(rng, 9, lengths=lengths)
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1])
        _, out_mats, out_lengths, _ = smote_sequences(
            vecs, mats, lengths, labels, ResampleConfig(k=2, seed=0))
        # minority lengths are 1,2,3; any synthetic combines x_old with its
        # 2 nearest minority neighbors, so its length is a max over those
        assert len(out_lengths) == len(out_mats) == 12
        for eff in out_lengths[9:]:
            assert eff in (2, 3)

    def test_counts_match_vector_smote(self):
        rng = np.random.default_rng(12)
        vecs, mats, lengths = make_sequences(rng, 10)
        labels = np.array([0] * 3 + [1] * 7)
        out = smote_sequences(vecs, mats, lengths, labels,
                              ResampleConfig(k=2, seed=1))
        assert [len(part) for part in out] == [14] * 4
        assert list(out[3][10:]) == [0] * 4
        # originals come first, unchanged
        for part, original in zip(out, (vecs, mats, lengths, labels)):
            assert np.array_equal(part[:10], original)
