"""Cross-validated experiment orchestration.

One experiment fixes a document representation, a sentiment mode and a
source-selection mode, then runs stratified k-fold cross validation: word
embeddings and document representations are fit once on the whole corpus
(they use no gender labels), the sentiment model is trained in advance on
the configured source data (once per run, or once per fold when manual
labels make its training set depend on the fold's training users; each
fold's model then continues from one shared by every fold, see
`_fold_sentiment`) and read once per model over every user. A run of one
cell or a grid of several trains in two passes (see `_run_cells`): the
first trains the sentiment models of every source mode and reads their
features, the second trains the gender classifiers of every cell's
folds (`_train_folds`). There a fold gathers its training and test rows,
oversamples only its training minority, and trains its gender classifier
once, scored at every entry of the epoch grid: MLPs with equal-shaped
training data in lockstep as one stacked model, each finetuned composite
on its own. A grid of cells shares all of this but the gender training:
one load, one embedding fit and, per source mode, the sentiment models.

Each pass is one schedule of parts, each part a few folds of one cell,
run by the fork scheduler `procs.map_parts`, which the embedding fit's
skip-gram shards run through too: the parts train in as many processes
at once as this one has cores in its affinity mask, at most one per part
(one process on a platform without `os.sched_getaffinity`), forked
children beside this one, which trains some parts itself. Every part is
one protocol (see `procs.Part`): its prepare, which runs here, gathers
and oversamples the part's folds and returns the call that trains them,
here or in a child. This module neither forks nor reads the core count.
The finetuned composites and the per-fold sentiment models of manual
sources are one fold per part; each MLP cell is one part, its MLPs
stacked. A schedule of one part, a single MLP cell's gender call, is
cut into one contiguous part per core. Every fold has its own seed, and
a stacked MLP ends with the bytes it would reach alone, so the report
bytes do not depend on the process count.

A document with no in-vocabulary token is dropped with one warning (see
`_embeddable`): a source review or manual sample always, a target user
under `avg_vector` or a sentiment mode. The tf-idf and keyword idf count
every loaded user, dropped ones too.
"""

import csv
import hashlib
import io
import json
import logging
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import (
    SourceReview,
    TokenDocument,
    build_virtual_documents,
    clean_tokens,
    document_id,
    load_manual_records,
    load_source_reviews,
    load_stopwords,
    load_user_records,
)
from .domainsel import DEFAULT_SIMILARITY_THRESHOLD, select_source
from .embed import (
    EmbedConfig,
    doc_matrix,
    doc_vector,
    gender_keywords,
    in_vocabulary,
    load_embeddings,
    tfidf_representation,
    train_skipgram,
)
from . import procs
from .errors import ConfigError, DataError, PipelineError
from .folds import FoldPlan, stratified_kfold
from .gender import CLASSES, train_gender
from .nn import TrainConfig
from .resample import ResampleConfig, _minority, _smote_core, smote
from .sentiment import (
    PolaritySequences,
    SentimentModel,
    build_finetune_model,
    extract_representations,
    head_activations,
    pad_sequences,
    polarity_features,
    polarity_sequences,
    train_finetune,
    train_sentiment,
)

logger = logging.getLogger(__name__)

REPRESENTATIONS = ("avg_vector", "tfidf", "keyword_tfidf")
SENTIMENT_MODES = ("none", "polarity_features", "frozen_lstm", "frozen_dense",
                   "finetuned_lstm")
SOURCE_MODES = ("entire", "high_similarity", "entire_plus_manual",
                "high_similarity_plus_manual")


@dataclass
class ExperimentConfig:
    representation: str = "avg_vector"
    sentiment_mode: str = "none"
    source_mode: str = "entire"
    smote: bool = False
    smote_k: int = 5
    z: float = DEFAULT_SIMILARITY_THRESHOLD
    epochs: tuple[int, ...] = (100,)
    seed: int = 0
    folds: int = 5
    # preprocessing / embedding
    dimension: int = 100
    window: int = 5
    negatives: int = 5
    embed_epochs: int = 5
    min_count: int = 2
    r: int = 500
    keyword_top_n: int = 500
    # sentiment model
    hidden_size: int = 64
    sentiment_dropout: float = 0.4
    sentiment_epochs: int = 30
    # shared training
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    mlp_dropout: float = 0.4

    def validate(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise ConfigError(f"representation must be one of {REPRESENTATIONS}, "
                              f"got {self.representation!r}")
        if self.sentiment_mode not in SENTIMENT_MODES:
            raise ConfigError(f"sentiment_mode must be one of {SENTIMENT_MODES}, "
                              f"got {self.sentiment_mode!r}")
        if self.source_mode not in SOURCE_MODES:
            raise ConfigError(f"source_mode must be one of {SOURCE_MODES}, "
                              f"got {self.source_mode!r}")
        if not self.epochs:
            raise ConfigError("epochs grid must not be empty")
        if any(e < 1 for e in self.epochs):
            raise ConfigError("every epochs entry must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if "high_similarity" in self.source_mode and not 0.0 < self.z < 1.0:
            raise ConfigError(f"z must be in (0, 1), got {self.z}")
        # the rules the component configs, doc_matrix, gender_keywords,
        # LSTMLayer and DropoutLayer apply, checked here so a bad value fails
        # before any work, under the name the user set it by
        for name in ("sentiment_epochs", "r", "keyword_top_n", "hidden_size",
                     "dimension", "window", "embed_epochs", "min_count",
                     "smote_k", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.negatives < 0:
            raise ConfigError(f"negatives must be >= 0, got {self.negatives}")
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError(f"learning_rate must be finite and > 0, got "
                              f"{self.learning_rate}")
        for name in ("mlp_dropout", "sentiment_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got "
                                  f"{getattr(self, name)}")
        self.resample_config()
        self.embed_config()
        self.train_config(min(self.epochs))

    # the component configurations every stage trains with; a fold passes
    # its own seed
    def train_config(self, epochs: int, seed: int | None = None) -> TrainConfig:
        return TrainConfig(epochs=epochs, batch_size=self.batch_size,
                           learning_rate=self.learning_rate,
                           optimizer=self.optimizer,
                           seed=self.seed if seed is None else seed)

    def resample_config(self, seed: int | None = None) -> ResampleConfig:
        return ResampleConfig(k=self.smote_k,
                              seed=self.seed if seed is None else seed)

    def embed_config(self) -> EmbedConfig:
        return EmbedConfig(dimension=self.dimension, window=self.window,
                           negatives=self.negatives, epochs=self.embed_epochs,
                           min_count=self.min_count, seed=self.seed)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if key == "epochs":
                value = parse_epochs(value)
            kwargs[key] = value
        return cls(**kwargs)

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


def parse_epochs(value) -> tuple[int, ...]:
    """The epoch grid of a comma-separated string ("60,80,100") or of a
    sequence of integers, for the config file, the flag and `from_dict`."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        return tuple(int(v) for v in parts if str(v).strip())
    except (TypeError, ValueError):
        raise ConfigError(f"epochs must be a comma-separated list of "
                          f"integers, got {value!r}") from None


def parse_config_text(text: str) -> dict:
    """Flat key=value configuration, '#' comments, values typed per field."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    raw: dict = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {number}: expected key=value, "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ConfigError(f"config line {number}: unknown key {key!r}")
        try:
            if key == "epochs":
                raw[key] = parse_epochs(value)
            elif types[key] is bool:
                if value.lower() not in _BOOL_VALUES:
                    raise ValueError(value)
                raw[key] = _BOOL_VALUES[value.lower()]
            elif types[key] is int:
                raw[key] = int(value)
            elif types[key] is float:
                raw[key] = float(value)
            else:
                raw[key] = value
        except (ValueError, ConfigError):
            raise ConfigError(f"config line {number}: cannot parse {value!r} "
                              f"for key {key!r}")
    return raw


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


@dataclass
class DataPaths:
    users: str
    reviews: str | None = None
    stopwords: str | None = None
    manual: str | None = None
    embeddings: str | None = None


@dataclass
class EpochColumn:
    epochs: int
    fold_accuracies: list[float]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))


@dataclass
class EvalReport:
    config: dict
    config_hash: str
    seed: int
    columns: list[EpochColumn]
    timing_seconds: float | None = None
    selection: dict | None = None

    def to_json(self) -> str:
        """Canonical serialization; wall-clock timing is intentionally left
        out so identical runs produce identical bytes."""
        payload = {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "results": [{"epochs": col.epochs,
                         "folds": [float(a) for a in col.fold_accuracies],
                         "mean": col.mean_accuracy}
                        for col in self.columns],
        }
        if self.selection is not None:
            payload["selection"] = self.selection
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def best_mean(self) -> float:
        return max(col.mean_accuracy for col in self.columns)


def emit_report(report: EvalReport, fmt: str = "json", out=None) -> str:
    """Render a report as canonical json, per-cell csv, or a fold-by-epoch
    text table; writes to `out` when given, otherwise returns the string."""
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["fold", "accuracy", "epochs", "config_hash"])
        for col in report.columns:
            for i, acc in enumerate(col.fold_accuracies):
                writer.writerow([f"D{i + 1}", f"{acc:.6f}", col.epochs,
                                 report.config_hash])
        text = buf.getvalue()
    elif fmt == "table":
        header = ["fold"] + [str(col.epochs) for col in report.columns]
        rows = []
        n_folds = len(report.columns[0].fold_accuracies)
        for i in range(n_folds):
            rows.append([f"D{i + 1}"] + [f"{col.fold_accuracies[i] * 100:.2f}"
                                         for col in report.columns])
        rows.append(["avg"] + [f"{col.mean_accuracy * 100:.2f}"
                               for col in report.columns])
        widths = [max(len(r[j]) for r in [header] + rows)
                  for j in range(len(header))]
        lines = ["  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
                 for row in [header] + rows]
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    return text


def _fold_seed(seed: int, fold_index: int, salt: int) -> int:
    return int(np.random.SeedSequence((seed, fold_index, salt))
               .generate_state(1)[0])


def load_corpora(paths: DataPaths):
    """Load, clean and assemble both corpora."""
    users = load_user_records(paths.users)
    stopwords = load_stopwords(paths.stopwords) if paths.stopwords else frozenset()
    docs = build_virtual_documents(users, stopwords)
    reviews = []
    if paths.reviews:
        for review in load_source_reviews(paths.reviews):
            tokens = clean_tokens(review.tokens, stopwords)
            if tokens:
                reviews.append(SourceReview(review_id=review.review_id,
                                            tokens=tuple(tokens),
                                            polarity=review.polarity))
            else:
                logger.warning("dropping review %s: emptied by cleaning",
                               review.review_id)
    return users, docs, reviews, stopwords


def fit_embeddings(config: ExperimentConfig, docs, reviews):
    """One shared table trained on the union of both token streams."""
    return train_skipgram(list(docs) + list(reviews), config.embed_config())


def embedding_table(config: ExperimentConfig, paths: DataPaths, docs, reviews):
    """The saved table at `paths.embeddings`, which must hold vectors of
    `config.dimension`, or one fit on both corpora."""
    if not paths.embeddings:
        return fit_embeddings(config, docs, reviews)
    table = load_embeddings(paths.embeddings)
    if table.dimension != config.dimension:
        raise DataError(f"{paths.embeddings} holds {table.dimension}-dimensional "
                        f"vectors, but dimension is {config.dimension}")
    return table


def _embeddable(docs, table, dropping: str) -> list[int]:
    """The ascending rows of the documents in `docs` that `table` can
    embed (see `in_vocabulary`); each other one is dropped with the
    warning `dropping % id`."""
    rows = []
    for row, doc in enumerate(docs):
        if in_vocabulary(doc, table):
            rows.append(row)
        else:
            logger.warning(dropping, document_id(doc))
    return rows


def _labeled_sequences(docs, polarities, table, r: int, dropping: str):
    """(kept documents, their (length, d) float32 sequences, their 0/1
    polarity targets, 1 for positive) of the `_embeddable` rows of `docs`
    and their `polarities`."""
    rows = _embeddable(docs, table, dropping)
    return ([docs[i] for i in rows], [doc_matrix(docs[i], table, r) for i in rows],
            np.array([polarities[i] == "positive" for i in rows], dtype=np.float64))


def build_source_items(reviews, table, r: int):
    """The kept reviews, sequences and targets of `_labeled_sequences`."""
    return _labeled_sequences(reviews, [review.polarity for review in reviews],
                              table, r,
                              "dropping review %s: all tokens out of vocabulary")


def build_manual_items(manual_records, table, r: int, stopwords):
    """(user ids, sequences, targets) of the manually labelled users that
    `_labeled_sequences` keeps, each user's document being their cleaned
    posts."""
    docs = [TokenDocument(record.user_id,
                          tuple(token for post in record.posts
                                for token in clean_tokens(post, stopwords)))
            for record, _ in manual_records]
    docs, seqs, targets = _labeled_sequences(
        docs, [polarity for _, polarity in manual_records], table, r,
        "dropping manual sample %s: out of vocabulary")
    return [doc.doc_id for doc in docs], seqs, targets


def user_features(config: ExperimentConfig, sentiment_modes: set[str], users,
                  docs, table, stopwords=frozenset()):
    """(kept docs, base, mats, lengths, polarity): what the sentiment modes
    in `sentiment_modes` read of each user, row i belonging to kept[i].
    `evaluate` and the staged `extract` build their features here, so
    both keep the same users in the same rows.

    Under `avg_vector` or a sentiment mode other than `none`, the users
    that `table` cannot embed are dropped (see `_embeddable`); otherwise
    `table` may be None. Each row is built once, of the kept users:
    `base`, the (n, F) averaged word vectors or tf-idf rows, whose idf
    counts every user in `docs`; `mats` and `lengths` (see
    `pad_sequences`) when a mode that runs the LSTM over the user
    documents (`frozen_lstm`, `frozen_dense`, `finetuned_lstm`) is asked
    for, and `polarity` (see `polarity_sequences`, built from `users`)
    when `polarity_features` is; each is None otherwise."""
    kept, rows = docs, None
    if config.representation == "avg_vector" or sentiment_modes - {"none"}:
        rows = _embeddable(docs, table,
                           "dropping user %s: all tokens out of vocabulary")
        if not rows:
            raise DataError("every user is out of the embedding vocabulary")
        kept = [docs[i] for i in rows]
    if config.representation == "avg_vector":
        base = np.stack([doc_vector(doc, table) for doc in kept])
    else:
        vocabulary = None
        if config.representation == "keyword_tfidf":
            vocabulary = gender_keywords(docs, config.keyword_top_n)
            if not vocabulary:
                size = len({token for doc in docs for token in doc.tokens})
                raise DataError(f"gender keyword set is empty: both genders' "
                                f"top keyword_top_n={config.keyword_top_n} "
                                f"tokens are the same, of a {size}-token "
                                f"vocabulary")
        base = tfidf_representation(docs, vocabulary)[0]
        if len(kept) < len(docs):
            base = base[rows]
    mats = lengths = polarity = None
    if sentiment_modes & {"frozen_lstm", "frozen_dense", "finetuned_lstm"}:
        mats, lengths = pad_sequences([doc_matrix(doc, table, config.r)
                                       for doc in kept])
    if "polarity_features" in sentiment_modes:
        users_by_id = {u.user_id: u for u in users}
        polarity = polarity_sequences([users_by_id[d.user_id] for d in kept],
                                      table, config.r, stopwords)
    return kept, base, mats, lengths, polarity


@dataclass
class SentimentSource:
    """What the sentiment model may train on under one source mode: the
    ids, (length, d) float32 sequences and 0/1 polarity targets of the
    source reviews, the ascending rows of them that similarity selection
    kept (None without selection), and the (user ids, sequences, targets)
    of the manual samples (None without manual labels)."""
    ids: list[str]
    seqs: list[np.ndarray]
    targets: np.ndarray
    selected: np.ndarray | None = None
    manual: tuple | None = None

    def training_set(self, train_ids=None) -> tuple[list, np.ndarray]:
        """The (sequences, targets) of the sentiment training set: the
        source rows, then the manual rows. Given `train_ids`, only the
        manual rows of those users join it, so no test user's label leaks
        in."""
        seqs, targets = self.seqs, self.targets
        if self.selected is not None:
            seqs, targets = [seqs[i] for i in self.selected], targets[self.selected]
        if self.manual is None:
            return seqs, targets
        ids, manual_seqs, manual_targets = self.manual
        allowed = set(ids if train_ids is None else train_ids)
        rows = [i for i, uid in enumerate(ids) if uid in allowed]
        return (seqs + [manual_seqs[i] for i in rows],
                np.concatenate([targets, manual_targets[rows]]))


def sentiment_sources(config: ExperimentConfig, source_modes, reviews,
                      target_vecs, table, stopwords,
                      manual_path=None) -> dict[str, SentimentSource]:
    """One SentimentSource per entry of `source_modes`. They share one set
    of source rows, one similarity selection (at `config.z`) of the
    reviews' averaged word vectors against `target_vecs`, the target
    users' (n, d) averaged word vectors, and one set of manual samples,
    each built only if a mode asks for it. `target_vecs` may be None when
    no mode selects."""
    if not reviews:
        raise DataError("sentiment training needs source-domain reviews")
    kept, seqs, targets = build_source_items(reviews, table, config.r)
    selected = manual = None
    if any("high_similarity" in mode for mode in source_modes):
        selected = select_source([doc_vector(review, table) for review in kept],
                                 target_vecs, config.z)
    manual_modes = [mode for mode in source_modes if mode.endswith("plus_manual")]
    if manual_modes:
        if not manual_path:
            raise DataError(f"source_mode {manual_modes[0]!r} needs manual "
                            "labels (--manual-labels)")
        manual = build_manual_items(load_manual_records(manual_path),
                                    table, config.r, stopwords)
    ids = [review.review_id for review in kept]
    return {mode: SentimentSource(
                ids=ids, seqs=seqs, targets=targets,
                selected=selected if "high_similarity" in mode else None,
                manual=manual if mode in manual_modes else None)
            for mode in source_modes}


def smote_sequences(vecs, mats, lengths, labels, config: ResampleConfig):
    """Oversample (base vector, document matrix) pairs in their joint
    flattened space so synthetic pairs stay aligned; originals come first.

    A synthetic matrix's effective length is the maximum over its
    contributors (x_old plus the neighbors used), since interpolation can
    leave any of their steps nonzero. The synthetic matrices are cast to
    the dtype of `mats`, so the oversampled stack keeps it.
    """
    minority, rows, needed = _minority(labels, config.k)
    flat = np.concatenate([vecs[rows], mats[rows].reshape(len(rows), -1)], axis=1)
    synth = _smote_core(flat, needed, config)
    if not synth:
        return vecs, mats, lengths, labels
    eff = lengths[rows]
    new_flat = np.stack([s.values for s in synth])
    vec_dim = vecs.shape[1]
    new_lens = np.array([int(eff[list((s.old_index,) + s.neighbor_indices)].max())
                         for s in synth])
    return (np.concatenate([vecs, new_flat[:, :vec_dim]]),
            np.concatenate([mats, new_flat[:, vec_dim:].reshape(
                -1, *mats.shape[1:]).astype(mats.dtype)]),
            np.concatenate([lengths, new_lens]),
            np.concatenate([labels, np.full(needed, minority)]))


@dataclass
class RunContext:
    """What every fold of one cell reads (`_train_folds` takes each fold's
    rows of it). The cells of one call share every field but `config` and
    `source` (one per source mode).

    Every per-user array has one row per user, row i belonging to the user
    `index_of` maps to i: `base`, the (n, F) base feature matrix, `labels`,
    the class indices, and `mats` and `lengths`, which like `source` are
    None without a sentiment mode. `polarity` holds the posts and user
    documents of the same users in the same order, which every fold's
    polarity scoring runs its own model over; it is None unless a cell
    scores polarity features."""
    config: ExperimentConfig
    plan: FoldPlan
    base: np.ndarray
    labels: np.ndarray
    index_of: dict
    mats: np.ndarray | None
    lengths: np.ndarray | None
    source: SentimentSource | None
    polarity: PolaritySequences | None

    def rows(self, ids) -> list[int]:
        return [self.index_of[uid] for uid in ids]


def _prepare_runs(cells: list[ExperimentConfig],
                  paths: DataPaths) -> list[RunContext]:
    """Load the corpora once and build what the folds of every cell share:
    embeddings, the per-user rows (see `user_features`), the plan and one
    sentiment source per source mode. The cells may differ only in
    sentiment and source mode."""
    config = cells[0]
    users, docs, reviews, stopwords = load_corpora(paths)
    if len(docs) < config.folds:
        raise DataError(f"only {len(docs)} usable users for {config.folds} folds")

    source_modes = list(dict.fromkeys(cell.source_mode for cell in cells
                                      if cell.sentiment_mode != "none"))
    table = None
    if source_modes or config.representation == "avg_vector":
        table = embedding_table(config, paths, docs, reviews)
    docs, base, mats, lengths, polarity = user_features(
        config, {cell.sentiment_mode for cell in cells}, users, docs, table,
        stopwords)
    sources = {}
    if source_modes:
        # under avg_vector the base rows are the selection targets
        targets = None
        if any("high_similarity" in mode for mode in source_modes):
            targets = (base if config.representation == "avg_vector"
                       else np.stack([doc_vector(doc, table) for doc in docs]))
        sources = sentiment_sources(config, source_modes, reviews, targets,
                                    table, stopwords, paths.manual)
    shared = RunContext(
        config=config, plan=stratified_kfold(
            [(d.user_id, d.gender) for d in docs], config.folds, config.seed),
        base=base, labels=np.array([CLASSES.index(d.gender) for d in docs]),
        index_of={d.user_id: i for i, d in enumerate(docs)},
        mats=mats, lengths=lengths, source=None, polarity=polarity)
    return [replace(shared, config=cell,
                    source=(sources[cell.source_mode]
                            if cell.sentiment_mode != "none" else None))
            for cell in cells]


def _run_cells(cells: list[ExperimentConfig],
               paths: DataPaths) -> list[EvalReport]:
    """Cross-validate every cell over one shared prefix (see
    `_prepare_runs`); one report per cell, in order. The folds train in
    several processes at once (see `procs.map_parts`); the reports' bytes
    do not depend on how many.

    The cells differ pairwise in (source mode, sentiment mode), as
    `run_experiment`'s one cell and `run_grid`'s cells do, so each fold's
    read-out of a (source mode, sentiment mode) has exactly one reader.

    Whatever the number of cells, the folds train in two
    `procs.map_parts` calls. The first trains the sentiment models of every source mode
    that a cell reads, in the order of each mode's first cell, and reads
    their features (see `_sentiment_readouts`). The second trains the
    gender models of every cell (see `_train_folds`): first the
    composites of the finetuned cells, one fold per part, in cell order,
    then the other cells, one part per cell, in cell order. Each part's
    prepare pops its folds' read-outs, so a fold's model and features are
    each dropped once the part of its one reader has been prepared. The
    reports are made when the second call has returned, so each report's
    `timing_seconds` is the time elapsed in this call until then.

    When there are several cells, a fold's error names the cell it
    happened in (`entire/frozen_lstm, fold 2: ...`), or, in a sentiment
    model that every cell of a source mode reads, the source mode."""
    started = time.perf_counter()
    for cell in cells:
        cell.validate()
        if cell.sentiment_mode == "none" and cell.source_mode != "entire":
            logger.info("sentiment_mode is 'none'; source_mode %r is ignored",
                        cell.source_mode)
    runs = _prepare_runs(cells, paths)
    named = len(runs) > 1
    readouts = _sentiment_readouts(runs, named)
    # the composites, the longest parts, first, so that the processes
    # share them out evenly and the MLP parts fill in after them
    order = sorted(range(len(runs)), key=lambda i: (
        runs[i].config.sentiment_mode != "finetuned_lstm"))
    parts = []
    for i in order:
        config = runs[i].config
        parts += _train_folds(runs[i], readouts.get(config.source_mode),
                              f"{config.source_mode}/{config.sentiment_mode}"
                              if named else None)
    results = iter(procs.map_parts(parts))
    accuracies = {i: [next(results) for _ in range(runs[i].plan.k)]
                  for i in order}
    elapsed = time.perf_counter() - started
    reports = []
    for i, run in enumerate(runs):
        config = run.config
        selection_info = None
        if run.source is not None and run.source.selected is not None:
            selection_info = {"kept": len(run.source.selected),
                              "total": len(run.source.seqs), "z": config.z}
        report = EvalReport(config=config.to_dict(),
                            config_hash=config.config_hash(),
                            seed=config.seed,
                            columns=_columns(config, accuracies[i]),
                            timing_seconds=elapsed, selection=selection_info)
        logger.info("experiment %s finished in %.1fs (best mean accuracy "
                    "%.4f)", report.config_hash, report.timing_seconds,
                    report.best_mean())
        reports.append(report)
    return reports


def _columns(config: ExperimentConfig, accuracies: list[dict]) -> list[EpochColumn]:
    """The report columns of one cell's folds' {epoch: accuracy} dicts,
    given in fold order."""
    return [EpochColumn(e, [accuracy[e] for accuracy in accuracies])
            for e in config.epochs]


# the epochs each fold's sentiment model of a manual source trains on its
# own training set, continuing from the source's shared model (see
# `_fold_sentiment`)
FOLD_EPOCHS = 2


def _log_sentiment(config: ExperimentConfig, which: str, items: int,
                   curve: list) -> None:
    last = curve[-1]
    logger.info("sentiment model for %s, %s: %d items, held-out loss %.4f, "
                "accuracy %.4f after %d epochs", config.source_mode, which,
                items, last.heldout_loss, last.heldout_accuracy, last.epoch)


def train_fold_sentiment(config: ExperimentConfig, seqs, targets,
                         index: int = 0,
                         start: SentimentModel | None = None
                         ) -> tuple[SentimentModel, list]:
    """Train fold `index`'s sentiment model on the sequences `seqs` and
    their polarity `targets` (see `SentimentSource.training_set`) with
    that fold's seed and log its held-out loss and accuracy; returns
    (model, curve). The one model of `entire` and `high_similarity` is
    fold 1's (index 0).

    From scratch it trains `config.sentiment_epochs` epochs; from `start`,
    the shared model of a manual source (see `shared_sentiment`), it
    trains the last FOLD_EPOCHS of them. Its held-out tenth is then drawn
    from rows `start` trained on, so its curve reads better than a
    from-scratch model's would."""
    model, curve = train_sentiment(
        seqs, targets,
        config.train_config(
            config.sentiment_epochs if start is None else FOLD_EPOCHS,
            _fold_seed(config.seed, index, 1)),
        config.hidden_size, config.sentiment_dropout, start=start)
    _log_sentiment(config, f"fold {index + 1}", len(seqs), curve)
    return model, curve


def shared_sentiment(config: ExperimentConfig,
                     source: SentimentSource) -> SentimentModel | None:
    """The model every fold of the manual source `source` continues from:
    trained on its fold-independent rows (`source.training_set([])`, the
    source rows after selection) with fold 1's seed, for all but the last
    FOLD_EPOCHS of `config.sentiment_epochs`, and logged. None, so that
    every fold trains from scratch, when no epoch is left for it or those
    rows hold fewer than 2 items of a polarity (the fold's manual rows
    may still make up the count). It is only read, so its gradients are
    freed."""
    seqs, targets = source.training_set([])
    positives = int(targets.sum())
    if (config.sentiment_epochs <= FOLD_EPOCHS
            or min(positives, len(targets) - positives) < 2):
        return None
    model, curve = train_sentiment(
        seqs, targets,
        config.train_config(config.sentiment_epochs - FOLD_EPOCHS,
                            _fold_seed(config.seed, 0, 1)),
        config.hidden_size, config.sentiment_dropout)
    _log_sentiment(config, "shared by every fold", len(seqs), curve)
    model.release_gradients()
    return model


def sentiment_features(model: SentimentModel, sentiment_modes: set[str], mats,
                       lengths, polarity) -> dict[str, np.ndarray]:
    """The per-user features of the frozen and polarity modes among
    `sentiment_modes`, read from `model`, by mode: row i belongs to the
    user of row i of `mats`, `lengths` and `polarity` (see
    `user_features`). Computed once per model, for every fold that reads
    it: `frozen_lstm` and `frozen_dense` share one LSTM read-out."""
    features = {}
    if sentiment_modes & {"frozen_lstm", "frozen_dense"}:
        states = extract_representations(model, mats, lengths)
        features["frozen_lstm"] = states
        if "frozen_dense" in sentiment_modes:
            features["frozen_dense"] = head_activations(model, states)
    if "polarity_features" in sentiment_modes:
        features["polarity_features"] = polarity_features(model, polarity)
    return features


def _fold_sentiment(runs: list[RunContext],
                    cell: str | None) -> list[procs.Part]:
    """The `procs.map_parts` parts, named `cell` in errors, that give one
    entry per fold for the cells in `runs`, which share a source mode: the
    fold's {sentiment mode: read-out} dict, the read-out of
    `finetuned_lstm` being the fold's sentiment model, which saw no label
    of the fold's test users, without its gradients, and of any other
    mode the features `sentiment_features` reads from that model. A
    model no finetuned cell reads is dropped once read.

    Only manual labels make the sentiment training set depend on the fold
    (a fold trains on its training users' labels alone), so those sources
    train one model per fold, in one part each. First the prepare of
    fold 1's part trains the source's shared model (see
    `shared_sentiment`) here, in `procs.map_parts`' process, so the parts
    forked after it read it copy-on-write; each fold's model then
    continues from it on the fold's own training set (see
    `train_fold_sentiment`), and it is dropped here once the last part
    is prepared. Without a shared model each fold trains from scratch.
    The other sources train on the same set in every fold: one part
    trains one model, with fold 1's seed, and gives its entry once per
    fold."""
    modes = {run.config.sentiment_mode for run in runs}
    first = runs[0]
    source, k = first.source, first.plan.k
    copies = k if source.manual is None else 1
    shared = None

    def prepare(folds):
        nonlocal shared
        (index,) = folds
        if source.manual is not None and index == 0:
            shared = shared_sentiment(first.config, source)
        start = shared
        if index == k - 1:
            shared = None

        def train():
            model, _ = train_fold_sentiment(
                first.config, *source.training_set(first.plan.split(index)[0]),
                index, start)
            features = sentiment_features(model, modes, first.mats,
                                          first.lengths, first.polarity)
            if "finetuned_lstm" in modes:
                # a composite copies only the parameters
                model.release_gradients()
            return [{mode: model if mode == "finetuned_lstm" else features[mode]
                     for mode in modes}] * copies
        return train

    # a fold-independent model is one part, fold 1's
    return [procs.Part([index], prepare, cell) for index in range(k // copies)]


def _sentiment_readouts(runs: list[RunContext],
                        named: bool) -> dict[str, list[dict]]:
    """The read-outs of every source mode that a cell in `runs` reads a
    sentiment model of, by source mode: one {sentiment mode: read-out}
    dict per fold (see `_fold_sentiment`), each its own copy, from which
    each cell pops its read-out (see `_train_folds`). One
    `procs.map_parts` call trains the parts of all of them, in the order
    of each mode's first cell, each named by its mode when `named`."""
    groups = {}
    for run in runs:
        if run.source is not None:
            groups.setdefault(run.config.source_mode, []).append(run)
    results = iter(procs.map_parts([
        part for mode, group in groups.items()
        for part in _fold_sentiment(group, mode if named else None)]))
    return {mode: [dict(next(results)) for _ in range(group[0].plan.k)]
            for mode, group in groups.items()}


def run_experiment(config: ExperimentConfig, paths: DataPaths) -> EvalReport:
    return _run_cells([config], paths)[0]


def _train_folds(run: RunContext, readouts: list[dict] | None,
                 cell: str | None) -> list[procs.Part]:
    """The `procs.map_parts` parts, named `cell` in errors, that train the
    gender model of every fold of `run.plan`, score it at the grid epochs
    on the fold's test users and give the fold's {epoch: accuracy} dict,
    in fold order (see `_columns`). Fold i pops the read-out of the cell's
    sentiment mode from `readouts[i]`, its source mode's dict of fold i
    (see `_sentiment_readouts`; a cell without a sentiment mode reads
    none, and may pass None), and trains and oversamples with its own
    seed.

    A fold takes its training and test users' rows, then joins them once
    each: a composite reads base rows, matrices and lengths (and SMOTE
    works in their joint space, see `smote_sequences`), an MLP the base
    rows joined with the features of the cell's mode, if any. The model
    is scored on the test inputs whenever training reaches a grid entry,
    as a run of exactly that many epochs would score.

    A finetuned fold's composite starts from a copy of the LSTM of the
    fold's own sentiment model. A part's prepare gathers, oversamples and
    builds its folds in `procs.map_parts`' process, popping each
    read-out, so a fold's model and features are dropped once the last
    part that reads them has been prepared. Each composite is one part.
    An MLP cell is one part, whatever the core count (a cell that trains
    alone is cut by `procs.map_parts`), and a part's MLPs train in its
    process in lockstep, those whose training matrices have one shape as
    one stack (one `train_gender` call); each ends with the bytes it
    would have trained to alone. A fold that fails is named by its
    position in the part (`exc.member`, see `procs.map_parts`)."""
    config = run.config
    finetuned = config.sentiment_mode == "finetuned_lstm"
    grid, epochs = set(config.epochs), max(config.epochs)

    def gather(index):
        """(seed, training inputs, their labels, test inputs, test labels)
        of fold `index`, oversampled under `config.smote`."""
        seed = _fold_seed(config.seed, index, 1)
        train, test = (run.rows(ids) for ids in run.plan.split(index))
        reads = None
        if config.sentiment_mode not in ("none", "finetuned_lstm"):
            reads = readouts[index].pop(config.sentiment_mode)
        x_train, x_test = (
            (run.base[rows], run.mats[rows], run.lengths[rows]) if finetuned
            else (run.base[rows],) if reads is None
            else (np.concatenate([run.base[rows], reads[rows]], axis=1),)
            for rows in (train, test))
        labels = run.labels[train]
        if config.smote:
            *x_train, labels = (smote_sequences if finetuned else smote)(
                *x_train, labels, config.resample_config(seed))
        return seed, x_train, labels, x_test, run.labels[test]

    def scorer(x_test, y_test, accuracy):
        def score(model, epoch):
            if epoch in grid:
                predicted = model.predict_proba(*x_test).argmax(axis=1)
                accuracy[epoch] = float((predicted == y_test).mean())
        return score

    k = run.plan.k
    if finetuned:
        def composite(folds):
            (index,) = folds
            seed, x_train, labels, x_test, y_test = gather(index)
            model = build_finetune_model(readouts[index].pop("finetuned_lstm"),
                                         vec_dim=run.base.shape[1],
                                         dropout_rate=config.mlp_dropout,
                                         seed=seed)

            def train():
                accuracy = {}
                train_finetune(model, *x_train, labels,
                               config.train_config(epochs, seed),
                               after_epoch=scorer(x_test, y_test, accuracy))
                return [accuracy]
            return train

        return [procs.Part([index], composite, cell) for index in range(k)]

    def stacked(folds):
        """The call that trains the MLPs of `folds`, each a member (seed,
        training matrix, class names, score, the accuracies the score
        fills), as one stack per training-matrix shape."""
        members = []
        for position, index in enumerate(folds):
            try:
                seed, x_train, labels, x_test, y_test = gather(index)
            except PipelineError as exc:
                exc.member = position
                raise
            accuracy = {}
            members.append((seed, x_train[0], [CLASSES[i] for i in labels],
                            scorer(x_test, y_test, accuracy), accuracy))
        return partial(train_stacks, members)

    def train_stacks(members):
        stacks = {}
        for position, fold in enumerate(members):
            stacks.setdefault(fold[1].shape, []).append((position, *fold))
        for stack in stacks.values():
            positions, seeds, features, labels, after_epoch, _ = zip(*stack)
            try:
                train_gender(features, labels, config.train_config(epochs),
                             dropout_rate=config.mlp_dropout,
                             after_epoch=after_epoch, seeds=seeds)
            except PipelineError as exc:
                # the failing member's position in the part
                exc.member = positions[exc.member or 0]
                raise
        return [accuracy for *_, accuracy in members]

    return [procs.Part(list(range(k)), stacked, cell)]


GRID_LAYERS = ("frozen_lstm", "frozen_dense", "finetuned_lstm")


def run_grid(config: ExperimentConfig, paths: DataPaths):
    """Sweep source modes against extraction layers (the 4 x 3 grid). The
    cells share the corpora, the embeddings and, within a source mode, its
    sentiment models; every report has the bytes `run_experiment` gives
    for its cell, whatever the process count (see `procs.map_parts`)."""
    cells = []
    for source_mode in SOURCE_MODES:
        if source_mode.endswith("plus_manual") and not paths.manual:
            logger.info("skipping %s: no manual labels supplied", source_mode)
            continue
        for layer in GRID_LAYERS:
            cells.append(replace(config, sentiment_mode=layer,
                                 source_mode=source_mode))
    reports = _run_cells(cells, paths)
    return [((cell.source_mode, cell.sentiment_mode), report)
            for cell, report in zip(cells, reports)]
