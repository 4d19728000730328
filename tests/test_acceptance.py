"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. The reproduction test against the original corpora only runs
when SENTPROFILE_USERS_JSONL / SENTPROFILE_REVIEWS_JSONL point at the
data; it is skipped otherwise.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from sentprofile.corpus import TokenDocument, UserRecord, clean_tokens
from sentprofile.embed import doc_matrix, save_embeddings
from sentprofile.errors import EmptySelectionError
from sentprofile.experiment import (
    DataPaths,
    ExperimentConfig,
    fit_embeddings,
    load_corpora,
    run_experiment,
    smote_sequences,
)
from sentprofile.folds import stratified_kfold
from sentprofile.nn import (
    DenseLayer,
    DropoutLayer,
    Network,
    TrainConfig,
)
from sentprofile.resample import ResampleConfig, smote
from sentprofile.sentiment import (
    polarity_features,
    polarity_sequences,
    train_sentiment,
)
from sentprofile.synth import (
    SynthConfig,
    generate_dataset,
    marker_frequency_correlation,
    write_dataset,
)

from conftest import predict_polarity, validate_plan
from gradcheck import gradient_check
from test_nn_gradcheck import LstmStack
from test_sentiment import integrator_model


# ----------------------------------------------------------------------
# gradient correctness: dense, dropout (at rate 0), linear head and LSTM
# against central finite differences, 50 random small instances
# ----------------------------------------------------------------------
def test_gradient_correctness_50_random_instances():
    started = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for case in range(50):
        d = int(rng.integers(2, 9))
        h = int(rng.integers(2, 9))
        batch = int(rng.integers(1, 5))
        seed = int(rng.integers(10_000))
        if case % 2 == 0:
            # feed-forward stack with dropout (at rate 0) and a linear head
            # whose logits the softmax cross-entropy reads
            act = ("tanh", "sigmoid", "relu")[case % 3]
            net = Network([
                DenseLayer(d, h, act, rng=np.random.default_rng(seed)),
                DropoutLayer(0.4),
                DenseLayer(h, 3, rng=np.random.default_rng(seed + 1)),
            ])
            x = rng.normal(size=(batch, d))
            y = np.eye(3)[rng.integers(0, 3, size=batch)]
            err = gradient_check(net, x, y, loss="categorical_cross_entropy")
        else:
            t = int(rng.integers(2, 6))
            stack = LstmStack(d, h, seed=seed)
            x = rng.normal(size=(batch, t, d))
            lengths = rng.integers(1, t + 1, size=batch)
            for b, ln in enumerate(lengths):
                x[b, ln:, :] = 0.0
            y = rng.integers(0, 2, size=(batch, 1)).astype(float)
            err = gradient_check(stack, x, y, loss="binary_cross_entropy",
                                 lengths=lengths)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"worst relative error {worst}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# oversampling geometry on 200 random two-class sets
# ----------------------------------------------------------------------
def test_smote_geometry_200_random_sets():
    rng = np.random.default_rng(20240502)
    for trial in range(200):
        dim = int(rng.integers(2, 6))
        n_min = int(rng.integers(4, 10))
        n_maj = n_min + int(rng.integers(2, 12))
        k = int(rng.integers(1, n_min))
        minority = rng.normal(size=(n_min, dim))
        majority = rng.normal(size=(n_maj, dim)) + 3.0
        samples = np.concatenate([minority, majority])
        labels = np.array([0] * n_min + [1] * n_maj)
        out_x, out_y = smote(samples, labels,
                             ResampleConfig(k=k, seed=trial))
        # classes exactly balanced, originals untouched and first
        assert (out_y == 0).sum() == (out_y == 1).sum() == n_maj
        assert np.array_equal(out_x[:len(samples)], samples)

        # every synthetic point is (1 - sigma) x_old + sigma * centroid for
        # some minority sample and its k nearest minority neighbors
        diffs = minority[:, None, :] - minority[None, :, :]
        dists = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(dists, np.inf)
        centroids = np.stack([
            minority[np.argsort(row, kind="stable")[:k]].mean(axis=0)
            for row in dists])
        for point in out_x[len(samples):]:
            matched = False
            for x_old, centroid in zip(minority, centroids):
                direction = centroid - x_old
                denom = direction @ direction
                if denom == 0.0:
                    matched = matched or np.allclose(point, x_old, atol=1e-12)
                    continue
                sigma = (point - x_old) @ direction / denom
                if -1e-12 <= sigma < 1.0 + 1e-12:
                    reconstructed = (1.0 - sigma) * x_old + sigma * centroid
                    if np.abs(point - reconstructed).max() < 1e-12:
                        matched = True
                        break
            assert matched, f"trial {trial}: synthetic point off-segment"


# ----------------------------------------------------------------------
# similarity selection: kept sets nest as z grows and ignore scaling
# ----------------------------------------------------------------------
def test_selection_monotonic_and_scale_invariant_100_sets():
    from sentprofile.domainsel import select_source

    rng = np.random.default_rng(20240503)

    for trial in range(100):
        dim = int(rng.integers(2, 6))
        n_source = int(rng.integers(5, 15))
        n_target = int(rng.integers(2, 8))
        vectors = rng.normal(size=(n_source, dim))
        targets = [rng.normal(size=dim) for _ in range(n_target)]

        def kept_ids(source_vectors, z):
            try:
                return set(select_source(source_vectors, targets, z).tolist())
            except EmptySelectionError:
                return set()

        thresholds = sorted(rng.uniform(0.02, 0.9, size=3))
        sets = [kept_ids(vectors, z) for z in thresholds]
        assert sets[2] <= sets[1] <= sets[0]

        z = float(thresholds[0])
        base = kept_ids(vectors, z)
        victim = int(rng.integers(0, n_source))
        for c in (0.5, 2.0, 10.0):
            scaled = vectors.copy()
            scaled[victim] *= c
            assert kept_ids(scaled, z) == base


# ----------------------------------------------------------------------
# desk-scale pipeline fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bundled_dataset(tmp_path_factory):
    dataset = generate_dataset(SynthConfig(seed=42))
    out = tmp_path_factory.mktemp("bundled")
    paths = write_dataset(dataset, out)
    return dataset, DataPaths(users=str(paths["users"]),
                              reviews=str(paths["reviews"]),
                              stopwords=str(paths["stopwords"]),
                              manual=str(paths["manual"]))


DESK_CONFIG = dict(representation="avg_vector", folds=5, dimension=24,
                   window=3, negatives=3, embed_epochs=3, min_count=2, r=80,
                   hidden_size=32, sentiment_epochs=12, batch_size=32,
                   learning_rate=3e-3, epochs=(200,))


# ----------------------------------------------------------------------
# the bundled source corpus is learnable: held-out accuracy >= 0.95
# within 30 epochs on one core
# ----------------------------------------------------------------------
def test_sentiment_learnability_within_30_epochs(bundled_dataset):
    from sentprofile.experiment import build_source_items

    dataset, paths = bundled_dataset
    started = time.perf_counter()
    assert len(dataset.reviews) == 2000
    config = ExperimentConfig(**DESK_CONFIG)
    _, docs, reviews, _ = load_corpora(paths)
    table = fit_embeddings(config, docs, reviews)
    _, seqs, targets = build_source_items(reviews, table, r=config.r)
    _, curve = train_sentiment(
        seqs, targets,
        TrainConfig(epochs=30, batch_size=32, learning_rate=3e-3, seed=0),
        hidden_size=32, dropout_rate=0.4)
    elapsed = time.perf_counter() - started
    best = max(e.heldout_accuracy for e in curve)
    assert best >= 0.95, f"held-out accuracy only reached {best:.3f}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"


# ----------------------------------------------------------------------
# transfer effect at desk scale: concatenating the frozen hidden state
# beats the document-vector baseline by >= 2 points over 5 seeds
# ----------------------------------------------------------------------
def test_transfer_effect_over_5_seeds(bundled_dataset, tmp_path):
    dataset, paths = bundled_dataset
    assert len(dataset.users) == 1000
    corr = marker_frequency_correlation(dataset)
    assert abs(corr - 0.6) < 0.1, f"generator correlation drifted to {corr:.3f}"

    margins = []
    for seed in (101, 202, 303, 404, 505):
        config = ExperimentConfig(**DESK_CONFIG, seed=seed)
        _, docs, reviews, _ = load_corpora(paths)
        table = fit_embeddings(config, docs, reviews)
        emb_path = tmp_path / f"emb{seed}.txt"
        save_embeddings(table, emb_path)
        seeded = DataPaths(users=paths.users, reviews=paths.reviews,
                           stopwords=paths.stopwords,
                           embeddings=str(emb_path))
        baseline = run_experiment(replace(config, sentiment_mode="none"),
                                  seeded)
        enriched = run_experiment(replace(config, sentiment_mode="frozen_lstm"),
                                  seeded)
        margin = (enriched.columns[0].mean_accuracy
                  - baseline.columns[0].mean_accuracy)
        margins.append(margin)
    mean_margin = float(np.mean(margins))
    assert mean_margin >= 0.02, \
        f"mean margin {mean_margin * 100:.2f} points; per seed: " \
        f"{[f'{m * 100:+.1f}' for m in margins]}"


# ----------------------------------------------------------------------
# reproduction against the original corpora, when supplied
# ----------------------------------------------------------------------
ORIGINAL_USERS = os.environ.get("SENTPROFILE_USERS_JSONL")
ORIGINAL_REVIEWS = os.environ.get("SENTPROFILE_REVIEWS_JSONL")


@pytest.mark.skipif(not (ORIGINAL_USERS and ORIGINAL_REVIEWS),
                    reason="original corpora not supplied "
                           "(set SENTPROFILE_USERS_JSONL and "
                           "SENTPROFILE_REVIEWS_JSONL)")
def test_reproduction_on_original_data():
    paths = DataPaths(users=ORIGINAL_USERS, reviews=ORIGINAL_REVIEWS,
                      stopwords=os.environ.get("SENTPROFILE_STOPWORDS"))
    base = ExperimentConfig(representation="avg_vector", folds=5,
                            dimension=100, window=5, negatives=5,
                            embed_epochs=5, min_count=2, r=500,
                            hidden_size=64, sentiment_epochs=30,
                            epochs=(60, 80, 100, 150, 200, 250, 300), seed=0)
    baseline = run_experiment(replace(base, sentiment_mode="none"), paths)
    assert abs(baseline.best_mean() * 100 - 84.20) <= 1.5
    best = run_experiment(replace(base, sentiment_mode="frozen_lstm",
                                  source_mode="high_similarity", z=0.25,
                                  smote=True), paths)
    assert abs(best.best_mean() * 100 - 89.73) <= 1.5


# ----------------------------------------------------------------------
# repeated evaluation with one seed emits byte-identical reports
# ----------------------------------------------------------------------
def test_evaluate_determinism_byte_identical(small_dataset, tmp_path):
    from sentprofile.cli import main

    from conftest import SMALL_CONFIG

    args = ["evaluate", "--users", small_dataset.users,
            "--reviews", small_dataset.reviews,
            "--stopwords", small_dataset.stopwords,
            "--sentiment-mode", "frozen_lstm", "--seed", "12"]
    for key, value in SMALL_CONFIG.items():
        flag = "--" + key.replace("_", "-")
        if key == "epochs":
            args += [flag, ",".join(str(e) for e in value)]
        else:
            args += [flag, str(value)]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ----------------------------------------------------------------------
# fold integrity over 1000 randomized datasets, and oversampling never
# reaches a test fold
# ----------------------------------------------------------------------
def test_fold_integrity_1000_randomized_datasets():
    rng = np.random.default_rng(20240504)
    for trial in range(1000):
        n_a = int(rng.integers(200, 700))
        n_b = int(rng.integers(200, 700))
        k = int(rng.integers(2, 7))
        records = [(f"a{i}", "male") for i in range(n_a)] + \
            [(f"b{i}", "female") for i in range(n_b)]
        plan = stratified_kfold(records, k=k, seed=trial)
        report = validate_plan(plan, records)
        assert report["disjoint"], f"trial {trial}"
        assert report["exhaustive"], f"trial {trial}"
        assert report["size_spread"] <= 1, f"trial {trial}"
        assert report["max_proportion_deviation"] <= 0.02, \
            f"trial {trial}: {report['max_proportion_deviation']:.4f}"


def test_synthetic_samples_never_in_test_folds():
    # the joint vector + matrix oversampling the finetuned pipeline runs
    rng = np.random.default_rng(20240505)
    ids = [f"u{i}" for i in range(60)]
    labels = np.array([0] * 45 + [1] * 15)
    vecs = rng.normal(size=(60, 2))
    mats = np.zeros((60, 4, 3))
    lengths = rng.integers(1, 5, size=60)
    for i, eff in enumerate(lengths):
        mats[i, :eff] = rng.normal(size=(eff, 3))
    plan = stratified_kfold(list(zip(ids, labels.tolist())), k=5, seed=1)
    index = {uid: i for i, uid in enumerate(ids)}
    for fold in range(plan.k):
        train_ids, test_ids = plan.split(fold)
        rows = [index[uid] for uid in train_ids]
        test_rows = [index[uid] for uid in test_ids]
        out_vecs, out_mats, out_lengths, out_labels = smote_sequences(
            vecs[rows], mats[rows], lengths[rows], labels[rows],
            ResampleConfig(k=3, seed=fold))
        n_synth = len(out_labels) - len(rows)
        assert n_synth > 0, "oversampling produced nothing"
        # originals first, unchanged; every synthetic row is minority, no
        # test-fold row appears among them, and only training rows set
        # their lengths
        assert np.array_equal(out_vecs[:len(rows)], vecs[rows])
        assert (out_labels[len(rows):] == 1).all()
        synth_vecs = out_vecs[len(rows):]
        for test_row in test_rows:
            assert not (synth_vecs == vecs[test_row]).all(axis=1).any()
        minority_rows = [r for r in rows if labels[r] == 1]
        assert out_lengths[len(rows):].max() <= lengths[minority_rows].max()
        assert not set(test_ids) & set(train_ids)
        # balanced after oversampling
        assert (out_labels == 0).sum() == (out_labels == 1).sum()


# ----------------------------------------------------------------------
# positive-rate feature equals brute-force per-post counting
# ----------------------------------------------------------------------
def test_positive_rate_matches_brute_force_100_users(polarity_table):
    # all 100 users are scored in one batched call
    model = integrator_model()
    rng = np.random.default_rng(20240506)
    users = []
    for trial in range(100):
        n_posts = int(rng.integers(1, 9))
        posts = []
        for _ in range(n_posts):
            tokens = tuple(
                f"{('pos', 'neg', 'neu')[rng.integers(0, 3)]}{rng.integers(0, 4)}"
                for _ in range(rng.integers(1, 7)))
            posts.append(tokens)
        users.append(UserRecord(f"u{trial}", "male", tuple(posts)))
    sequences = polarity_sequences(users, polarity_table, r=8)
    scored = polarity_features(model, sequences)
    assert scored.shape == (100, 2)
    for user, (_, positive_rate), post_rows in zip(users, scored,
                                                    sequences.post_rows):
        positives = scoreable = 0
        for post in user.posts:
            tokens = clean_tokens(post)
            if not any(t in polarity_table for t in tokens):
                continue
            scoreable += 1
            matrix = doc_matrix(TokenDocument("p", tuple(tokens)),
                                polarity_table, 8)
            if predict_polarity(model, matrix) > 0.5:
                positives += 1
        assert len(post_rows) == scoreable
        assert positive_rate == positives / scoreable
