"""Sentiment model training, representation extraction and polarity features.

The sentiment classifier is one LSTM layer, a dropout layer on its final
hidden state and a linear unit whose sigmoid is the polarity. After
training on the (selected or augmented) source domain it serves three
purposes: predicting polarity, exposing its middle-layer activations as
transferable representations, and scoring per-post polarity rates for the
two-dimensional polarity features.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .corpus import TokenDocument, UserRecord, clean_tokens
from .embed import EmbeddingTable, doc_matrix, in_vocabulary
from .errors import AllOovError, DataError
from .gender import DTYPE, build_mlp, class_probabilities, fit_softmax_classifier
from .nn import (
    DenseLayer,
    DropoutLayer,
    LSTMLayer,
    Model,
    TrainConfig,
    binary_cross_entropy,
    fit,
    header_field,
    load_parameters,
    register_model,
    sigmoid,
)


class SentimentModel(Model):
    checkpoint_kind = "sentiment"

    def __init__(self, input_dim: int, hidden_size: int = 64,
                 dropout_rate: float = 0.4, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.dropout_rate = dropout_rate
        self.seed = seed
        self.lstm = LSTMLayer(input_dim, hidden_size, rng=rng)
        self.dropout = DropoutLayer(dropout_rate)
        self.head = DenseLayer(hidden_size, 1, rng=rng)
        self.trained = False

    def parts(self):
        return [("lstm", self.lstm), ("dropout", self.dropout),
                ("head", self.head)]

    def forward_batch(self, inputs: tuple, training: bool = False) -> np.ndarray:
        """inputs: (mats, lengths), mats being (B, T, d) sequences; returns
        polarity probabilities (B, 1).

        Only a training forward keeps the LSTM's backward cache, so
        `backward` follows one of those.
        """
        mats, lengths = inputs
        # the head, and the dropout before it, compute in float64 over the
        # state, whatever dtype the LSTM ran in
        h = self.lstm.forward(mats, lengths, cache=training)
        hd = self.dropout.forward(h.astype(np.float64), training=training)
        return sigmoid(self.head.forward(hd, training=training))

    def backward(self, d_logits: np.ndarray) -> None:
        grad = self.head.backward(d_logits)
        grad = self.dropout.backward(grad)
        self.lstm.backward(grad)

    def checkpoint_meta(self) -> dict:
        return {"input_dim": self.input_dim, "hidden_size": self.hidden_size,
                "dropout_rate": self.dropout_rate, "seed": self.seed,
                "trained": self.trained}

    @classmethod
    def from_checkpoint(cls, meta: dict, params) -> "SentimentModel":
        model = cls(header_field(meta, "input_dim", "count"),
                    header_field(meta, "hidden_size", "count"),
                    header_field(meta, "dropout_rate", "rate"),
                    header_field(meta, "seed", "seed", 0))
        load_parameters(model.parameters(), params)
        model.trained = header_field(meta, "trained", "flag", False)
        return model


register_model(SentimentModel.checkpoint_kind, SentimentModel)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    heldout_loss: float
    heldout_accuracy: float


def pad_sequences(seqs) -> tuple[np.ndarray, np.ndarray]:
    """(len(seqs), T, d) zero-padded stack of (length, d) sequences, in
    the dtype of the first one, and their lengths. T is the longest
    length: the LSTM reads each sequence's state at its own last step, so
    padding past the longest one would change nothing but cost recurrence
    steps and memory."""
    lengths = np.array([len(seq) for seq in seqs])
    mats = np.zeros((len(seqs), int(lengths.max()), seqs[0].shape[1]),
                    seqs[0].dtype)
    for row, seq in enumerate(seqs):
        mats[row, :len(seq)] = seq
    return mats, lengths


def _heldout_split(labels: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split, holding out a tenth of each class (at least one
    item of a class of two or more), so both partitions keep both
    classes."""
    train_idx, held_idx = [], []
    for cls in (0.0, 1.0):
        members = np.flatnonzero(labels[:, 0] == cls)
        members = members[rng.permutation(len(members))]
        n_held = max(1, int(0.1 * len(members))) if len(members) > 1 else 0
        held_idx.extend(members[:n_held])
        train_idx.extend(members[n_held:])
    return np.sort(np.array(train_idx)), np.sort(np.array(held_idx))


def train_sentiment(seqs, targets, train_config: TrainConfig,
                    hidden_size: int = 64, dropout_rate: float = 0.4,
                    start: SentimentModel | None = None):
    """Train the polarity classifier on the (length, d) sequences `seqs`,
    target 1 marking a positive one and 0 a negative one.

    Returns (model, per-epoch curve) where the curve tracks the loss and
    accuracy on a held-out tenth of the data.

    The model starts from fresh weights drawn from `train_config.seed`,
    or, given `start`, a trained model of the same sizes, from a copy of
    its parameters; `start` itself is never modified. Either way the seed
    alone decides the held-out split, the batch order and the dropout
    masks, and the optimizer starts with fresh moments.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    positives = int(targets.sum())
    per_class = {"positive": positives, "negative": len(targets) - positives}
    if min(per_class.values()) < 2:
        raise DataError(f"need at least 2 items per polarity class, got "
                        f"{per_class}")

    seq = np.random.SeedSequence(train_config.seed)
    split_seed, batch_seed, dropout_seed = seq.spawn(3)
    train_idx, held_idx = _heldout_split(targets,
                                         np.random.default_rng(split_seed))
    # training rows first, so both partitions are views of one stack
    order = np.concatenate([train_idx, held_idx])
    mats, lengths = pad_sequences([seqs[i] for i in order])
    targets = targets[order]
    n = len(train_idx)
    held_inputs, held_targets = (mats[n:], lengths[n:]), targets[n:]
    model = SentimentModel(input_dim=mats.shape[2], hidden_size=hidden_size,
                           dropout_rate=dropout_rate, seed=train_config.seed)
    if start is not None:
        load_parameters(model.parameters(), start.parameters())
    model.dropout.rng = np.random.default_rng(dropout_seed)

    heldout = []  # (loss, accuracy) after each epoch

    def after_epoch(model, epoch):
        probs = model.forward_batch(held_inputs, training=False)
        loss, _ = binary_cross_entropy(probs, held_targets)
        heldout.append((float(loss),
                        float(((probs > 0.5) == (held_targets > 0.5)).mean())))

    history, = fit([model], [(mats[:n], lengths[:n])], [targets[:n]],
                   binary_cross_entropy, train_config,
                   [np.random.default_rng(batch_seed)], [after_epoch])
    model.trained = True
    return model, [EpochStats(record["epoch"], record["train_loss"], *scores)
                   for record, scores in zip(history, heldout)]


# rows per read-out forward, and per head GEMM over the read-out's states
READOUT_BATCH = 256


def extract_representations(model: SentimentModel, mats: np.ndarray,
                            lengths: np.ndarray) -> np.ndarray:
    """The (n, H) final LSTM hidden states (the `frozen_lstm` features) of
    the (n, T, d) sequences, row i belonging to mats[i]; dropout is off.
    `head_activations` of them gives the `frozen_dense` features.

    Runs cache-free forwards over consecutive chunks of READOUT_BATCH
    rows; the LSTM runs each only up to its longest sequence."""
    if not model.trained:
        raise DataError("cannot extract representations from an untrained model")
    lengths = np.asarray(lengths)
    return np.concatenate([
        model.lstm.forward(mats[start:start + READOUT_BATCH],
                           lengths[start:start + READOUT_BATCH], cache=False)
        for start in range(0, len(lengths), READOUT_BATCH)])


def head_activations(model: SentimentModel, states: np.ndarray) -> np.ndarray:
    """The (n, 1) head logits (pre-sigmoid activations) of (n, H) final
    hidden states, one head forward per chunk of READOUT_BATCH rows: the
    chunks `extract_representations` forwards, so one read-out of the
    states gives both layers their bytes."""
    return np.concatenate([model.head.forward(states[start:start + READOUT_BATCH])
                           for start in range(0, len(states), READOUT_BATCH)])


# sequences per polarity forward. Inference forwards keep no backward
# cache, so a chunk holds only its padded input and gate temporaries; a
# larger chunk gains little more.
POLARITY_BATCH = 64


@dataclass
class PolaritySequences:
    """What polarity scoring runs the model over, built once per user list.

    `ordered` holds the (length, d) sequence of every scoreable post and
    user document, sorted by length (ascending, stable); `order[k]`
    is the input row of ordered[k]. Per user, in input order, `post_rows`
    gives the input rows of the posts, and the user document is the row
    right after them."""
    ordered: list[np.ndarray]
    order: np.ndarray
    post_rows: list[range]


def polarity_sequences(users: list[UserRecord], table: EmbeddingTable, r: int,
                       stopwords=frozenset()) -> PolaritySequences:
    """Clean and embed each user's posts and user document for
    `polarity_features`; they do not depend on the model, so one build
    serves every model scored on the same users.

    Posts whose cleaned tokens are all out of vocabulary cannot be scored
    and are left out; a user with no scoreable post is an error."""
    seqs: list[np.ndarray] = []
    post_rows: list[range] = []
    for user in users:
        first = len(seqs)
        all_tokens: list[str] = []
        for j, post in enumerate(user.posts):
            tokens = clean_tokens(post, stopwords)
            all_tokens.extend(tokens)
            post_doc = TokenDocument(f"{user.user_id}/post{j}", tuple(tokens))
            if in_vocabulary(post_doc, table):
                seqs.append(doc_matrix(post_doc, table, r))
        if len(seqs) == first:
            raise AllOovError(f"every post of user {user.user_id!r} is out of "
                              "vocabulary")
        post_rows.append(range(first, len(seqs)))
        seqs.append(doc_matrix(TokenDocument(doc_id=user.user_id,
                                             tokens=tuple(all_tokens)), table, r))
    order = np.argsort([len(seq) for seq in seqs], kind="stable")
    return PolaritySequences(ordered=[seqs[i] for i in order], order=order,
                             post_rows=post_rows)


def polarity_features(model: SentimentModel,
                      sequences: PolaritySequences) -> np.ndarray:
    """(n, 2) polarity features of the n users `sequences` was built from
    (see `polarity_sequences`), row i belonging to the i-th: the user
    document's polarity, then the fraction of the user's posts predicted
    positive (probability > 0.5).

    Unscoreable posts are excluded from the rate's denominator. Every post
    and user document is scored in a few batched forwards over the
    length-sorted chunks of POLARITY_BATCH sequences, each padded to its
    longest one, with the probability a forward of that one sequence
    alone gives.
    """
    ordered = sequences.ordered
    probs = np.empty(len(ordered))
    for start in range(0, len(ordered), POLARITY_BATCH):
        chunk = slice(start, start + POLARITY_BATCH)
        probs[sequences.order[chunk]] = model.forward_batch(
            pad_sequences(ordered[chunk]))[:, 0]
    features = np.empty((len(sequences.post_rows), 2))
    for user, rows in enumerate(sequences.post_rows):
        positives = int((probs[rows.start:rows.stop] > 0.5).sum())
        features[user] = probs[rows.stop], positives / len(rows)
    return features


class FinetuneModel(Model):
    """Two-input composite for finetuned transfer.

    Input A is the document vector, input B the document matrix run through
    a trainable copy of the sentiment LSTM (the sentiment head is
    discarded); the concatenation feeds the gender MLP, of the
    `gender.DEFAULT_HIDDEN` widths `train_gender` trains. The gender loss
    backpropagates into the LSTM. The MLP's parameters are float32
    (`gender.DTYPE`), and so are the LSTM's that `build_finetune_model`
    copies; the composite then computes in float32 on the float32 document
    vectors `train_finetune` and `predict_proba` pass it.
    """

    def __init__(self, lstm: LSTMLayer, vec_dim: int,
                 dropout_rate: float = 0.4, seed: int = 0):
        self.lstm = lstm
        self.vec_dim = vec_dim
        self.mlp = build_mlp(vec_dim + lstm.hidden_dim,
                             dropout_rate=dropout_rate, seed=seed)
        self.history: list[dict] = []

    def parts(self):
        return ([(f"mlp.{prefix}", layer) for prefix, layer in self.mlp.parts()]
                + [("lstm", self.lstm)])

    def forward_batch(self, inputs: tuple, training: bool = False) -> np.ndarray:
        vecs, mats, lengths = inputs
        h = self.lstm.forward(mats, lengths, cache=training)
        features = np.concatenate([vecs, h], axis=1)
        return class_probabilities(
            self.mlp.forward(features, training=training), training)

    def backward(self, d_logits: np.ndarray) -> None:
        d_features = self.mlp.backward(d_logits)
        self.lstm.backward(d_features[:, self.vec_dim:])

    def predict_proba(self, vecs, mats, lengths) -> np.ndarray:
        return self.forward_batch((np.asarray(vecs, dtype=DTYPE), mats, lengths),
                                  training=False)


def build_finetune_model(model: SentimentModel, vec_dim: int,
                         dropout_rate: float = 0.4,
                         seed: int = 0) -> FinetuneModel:
    """Composite of a trainable copy of the trained LSTM, its parameters
    rounded to float32 (`gender.DTYPE`), and a fresh MLP.

    The copy owns its arrays: the trained model's LSTM parameters are views
    of that model's flat buffer, and the composite lays the copy into a
    buffer of its own when it trains, so the trained model stays as it is
    for the other cells that share it."""
    if not model.trained:
        raise DataError("finetuning needs a trained sentiment model")
    lstm = copy.copy(model.lstm)
    for name, value in model.lstm.params().items():
        setattr(lstm, name, value.astype(DTYPE))
    lstm.grads = {name: np.zeros_like(value)
                  for name, value in lstm.params().items()}
    return FinetuneModel(lstm=lstm, vec_dim=vec_dim,
                         dropout_rate=dropout_rate, seed=seed)


def train_finetune(model: FinetuneModel, vecs: np.ndarray, mats: np.ndarray,
                   lengths: np.ndarray, labels: np.ndarray,
                   config: TrainConfig, after_epoch=None) -> FinetuneModel:
    """Train the composite with the same loop as the plain gender MLP;
    `after_epoch` as in `fit_softmax_classifier`, for the one model."""
    model.history, = fit_softmax_classifier(
        [model], [(np.asarray(vecs, dtype=DTYPE), mats, lengths)], [labels],
        config,
        after_epoch=None if after_epoch is None else [after_epoch])
    return model
