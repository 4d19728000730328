import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sentprofile.embed import EmbeddingTable, save_embeddings
from sentprofile.errors import ShapeError
from sentprofile.experiment import (
    DataPaths,
    ExperimentConfig,
    fit_embeddings,
    load_corpora,
)
from sentprofile.synth import SynthConfig, generate_dataset, write_dataset


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """Desk-size corpus shared by the pipeline-level tests."""
    config = SynthConfig(n_users=90, n_reviews=160, seed=5, n_manual=20,
                         posts_per_user=(2, 4), tokens_per_post=(6, 12),
                         review_tokens=(6, 20), n_topics=4, tokens_per_topic=15)
    dataset = generate_dataset(config)
    out = tmp_path_factory.mktemp("smalldata")
    paths = write_dataset(dataset, out)
    return DataPaths(users=str(paths["users"]), reviews=str(paths["reviews"]),
                     stopwords=str(paths["stopwords"]),
                     manual=str(paths["manual"]))


SMALL_CONFIG = dict(folds=3, dimension=8, window=2, negatives=2,
                    embed_epochs=2, min_count=2, r=16, hidden_size=6,
                    sentiment_epochs=2, batch_size=16, learning_rate=3e-3,
                    epochs=(3,), keyword_top_n=30)


# the documents `with_unembeddable_documents` adds, one of each kind
UNEMBEDDABLE = {"users": "oov-user", "reviews": "oov-review",
                "manual": "oov-manual"}


def with_unembeddable_documents(paths: DataPaths, tmp_path) -> DataPaths:
    """`paths` with one more user, review and manual sample (the ids of
    UNEMBEDDABLE), each of tokens unknown to the table fit on `paths`
    under SMALL_CONFIG, which the returned paths name as embeddings."""
    _, docs, reviews, _ = load_corpora(paths)
    embeddings = tmp_path / "emb.txt"
    save_embeddings(fit_embeddings(ExperimentConfig(**SMALL_CONFIG), docs,
                                   reviews), embeddings)
    extra = {
        "users": {"user_id": UNEMBEDDABLE["users"], "gender": "male",
                  "posts": [["qqunseenuser"]]},
        "reviews": {"review_id": UNEMBEDDABLE["reviews"],
                    "polarity": "positive", "tokens": ["qqunseenreview"]},
        "manual": {"user_id": UNEMBEDDABLE["manual"], "polarity": "negative",
                   "posts": [["qqunseenmanual"]]}}
    files = {}
    for kind, record in extra.items():
        files[kind] = tmp_path / f"{kind}.jsonl"
        files[kind].write_text(
            Path(getattr(paths, kind)).read_text(encoding="utf-8")
            + json.dumps(record) + "\n", encoding="utf-8")
    return replace(paths, embeddings=str(embeddings),
                   **{kind: str(path) for kind, path in files.items()})


@pytest.fixture
def cores(monkeypatch):
    """cores(n) gives this process n cores in its affinity mask, so the
    runs after it train their folds in up to n processes (see
    `experiment._map_folds`)."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return set_cores


@pytest.fixture
def tiny_table():
    """Hand-built 2-dimensional embedding table."""
    return EmbeddingTable(2, {
        "a": np.array([1.0, 2.0]),
        "b": np.array([3.0, 4.0]),
        "c": np.array([-1.0, 0.5]),
    })


def make_table(tokens, dimension=2, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dimension,
                          {t: rng.normal(size=dimension) for t in tokens})


@pytest.fixture
def polarity_table():
    """First embedding coordinate carries the sign a hand-built integrator
    model keys on: 'pos*' tokens positive, 'neg*' negative, others zero."""
    vectors = {}
    for i in range(4):
        vectors[f"pos{i}"] = np.array([1.0, 0.1 * i])
        vectors[f"neg{i}"] = np.array([-1.0, 0.1 * i])
        vectors[f"neu{i}"] = np.array([0.0, 0.2 + 0.1 * i])
    return EmbeddingTable(2, vectors)


def validate_plan(plan, pairs) -> dict:
    """Measure a fold plan's invariants over the (id, class) `pairs`;
    returns the observed extremes."""
    all_ids = [uid for uid, _ in pairs]
    flat = [uid for fold in plan.folds for uid in fold]
    disjoint = len(flat) == len(set(flat))
    exhaustive = set(flat) == set(all_ids)
    sizes = [len(fold) for fold in plan.folds]
    labels = dict(pairs)
    classes = sorted({label for _, label in pairs})
    global_props = {c: sum(1 for _, l in pairs if l == c) / len(pairs)
                    for c in classes}
    max_dev = 0.0
    for fold in plan.folds:
        for c in classes:
            prop = sum(1 for uid in fold if labels[uid] == c) / len(fold)
            max_dev = max(max_dev, abs(prop - global_props[c]))
    return {"disjoint": disjoint, "exhaustive": exhaustive,
            "size_spread": max(sizes) - min(sizes),
            "max_proportion_deviation": max_dev}


def predict_polarity(model, seq: np.ndarray) -> float:
    """Probability that the (length, d) document sequence (see
    `embed.doc_matrix`) is positive; dropout off. The one-document
    reference for the batched `polarity_features`."""
    if seq.shape[1] != model.input_dim:
        raise ShapeError(f"word vector dimension {seq.shape[1]} does not match "
                         f"model input dim {model.input_dim}")
    probs = model.forward_batch((seq[None], np.array([len(seq)])))
    return float(probs[0, 0])
