"""Gender classification head.

Features are an (n, F) float64 matrix, row i holding one user's base
representation (averaged word vectors or tf-idf) optionally joined with a
sentiment representation (or the two polarity features). The classifier is
a fixed MLP: dense(in -> 50, relu), dropout(0.4), dense(50 -> 10, relu),
dense(10 -> 2) and a softmax. Feature files hold such a matrix, one JSON
line per row.
"""

import json
import logging
from typing import Sequence

import numpy as np

from .corpus import jsonl_records
from .errors import CheckpointError, DataError, SchemaError, ShapeError
from .nn import (
    DenseLayer,
    DropoutLayer,
    Model,
    Network,
    TrainConfig,
    categorical_cross_entropy,
    fit,
    header_field,
    load_parameters,
    register_model,
    softmax,
)

logger = logging.getLogger(__name__)

CLASSES = ("male", "female")
DEFAULT_HIDDEN = (50, 10)
DEFAULT_DROPOUT = 0.4


def build_mlp(input_dim: int, hidden: tuple[int, int] = DEFAULT_HIDDEN,
              dropout_rate: float = DEFAULT_DROPOUT, n_classes: int = 2,
              seed: int = 0) -> Network:
    rng = np.random.default_rng(seed)
    layers = [DenseLayer(input_dim, hidden[0], activation="relu", rng=rng),
              DropoutLayer(dropout_rate),
              DenseLayer(hidden[0], hidden[1], activation="relu", rng=rng),
              DenseLayer(hidden[1], n_classes, rng=rng)]
    return Network(layers)


class GenderModel(Model):
    checkpoint_kind = "gender"

    def __init__(self, input_dim: int, hidden: tuple[int, int] = DEFAULT_HIDDEN,
                 dropout_rate: float = DEFAULT_DROPOUT, seed: int = 0):
        self.input_dim = input_dim
        self.hidden = tuple(hidden)
        self.dropout_rate = dropout_rate
        self.seed = seed
        self.network = build_mlp(input_dim, self.hidden, dropout_rate,
                                 len(CLASSES), seed)
        self.history: list[dict] = []

    def parts(self):
        return self.network.parts()

    def forward_batch(self, inputs: tuple, training: bool = False) -> np.ndarray:
        return softmax(self.network.forward(inputs[0], training=training))

    def backward(self, d_logits: np.ndarray) -> None:
        self.network.backward(d_logits)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[1] != self.input_dim:
            raise ShapeError(f"model expects features of length {self.input_dim}, "
                             f"got {features.shape[1]}")
        return self.forward_batch((features,), training=False)

    def checkpoint_meta(self) -> dict:
        return {"input_dim": self.input_dim, "hidden": list(self.hidden),
                "dropout_rate": self.dropout_rate, "seed": self.seed}

    @classmethod
    def from_checkpoint(cls, meta: dict, params) -> "GenderModel":
        hidden = header_field(meta, "hidden", "counts")
        if len(hidden) != 2:
            raise CheckpointError(f"checkpoint header field 'hidden' must hold "
                                  f"two layer widths, got {hidden!r}")
        model = cls(header_field(meta, "input_dim", "count"), tuple(hidden),
                    header_field(meta, "dropout_rate", "rate"),
                    header_field(meta, "seed", "seed", 0))
        load_parameters(model.parameters(), params)
        return model


register_model(GenderModel.checkpoint_kind, GenderModel)


def fit_softmax_classifier(models: list, inputs: list[tuple],
                           labels: list[np.ndarray], config: TrainConfig,
                           seeds: Sequence[int] | None = None,
                           after_epoch=None) -> list[list[dict]]:
    """`nn.fit` of gender MLPs or composites on class indices, in lockstep.

    Member j trains on `inputs[j]`, a tuple of arrays sharing axis 0 with
    `labels[j]`, which index CLASSES; a model outputs one probability per
    class. Member j's batch order and dropout masks derive from `seeds[j]`
    (default: `config.seed` for every member), so identical calls
    reproduce identical parameters, and a member trains to the bytes it
    would alone. `after_epoch[j](model, epoch)` runs after each epoch of
    member j; an inference-mode forward there draws nothing from the
    training streams and leaves nothing that the next training batch
    reads, so the model it sees at epoch e is the one a run of exactly e
    epochs returns. Returns, per member, one {epoch, train_loss} record per
    epoch.
    """
    if seeds is None:
        seeds = [config.seed] * len(models)
    rngs = []
    for model, seed in zip(models, seeds):
        batch_seed, dropout_seed = np.random.SeedSequence(seed).spawn(2)
        dropouts = model.dropout_layers()
        for layer, child in zip(dropouts,
                                dropout_seed.spawn(max(1, len(dropouts)))):
            layer.rng = np.random.default_rng(child)
        rngs.append(np.random.default_rng(batch_seed))
    return fit(models, inputs, [np.eye(len(CLASSES))[y] for y in labels],
               categorical_cross_entropy, config, rngs, after_epoch)


def _training_matrix(features, labels: Sequence[str]):
    """(matrix, class indices) of one model's training data."""
    matrix = np.asarray(features, dtype=np.float64)
    unknown = set(labels) - set(CLASSES)
    if unknown:
        raise DataError(f"unknown class labels: {sorted(unknown)}")
    label_idx = np.array([CLASSES.index(l) for l in labels])
    if len(set(labels)) < 2:
        raise DataError("training data holds a single class")
    if matrix.shape[0] != label_idx.shape[0]:
        raise ShapeError("features and labels must align")
    return matrix, label_idx


def train_gender(features, labels: Sequence[str], config: TrainConfig,
                 hidden: tuple[int, int] = DEFAULT_HIDDEN,
                 dropout_rate: float = DEFAULT_DROPOUT,
                 after_epoch=None, seeds: Sequence[int] | None = None):
    """Train the MLP on an (n, F) feature matrix whose row i has the class
    name `labels[i]`; `after_epoch` as in `fit_softmax_classifier`, for
    the one model.

    With `seeds`, trains one model per seed in lockstep and returns the
    list of them: `features`, `labels` and `after_epoch` then hold one
    entry per model, and model j trains to the bytes that
    `train_gender(features[j], labels[j], replace(config, seed=seeds[j]),
    ...)` gives. Every model's feature matrix must have the same shape."""
    single = seeds is None
    if single:
        features, labels, seeds = [features], [labels], [config.seed]
        after_epoch = None if after_epoch is None else [after_epoch]
    models, inputs, targets = [], [], []
    for member_features, member_labels, seed in zip(features, labels, seeds):
        matrix, label_idx = _training_matrix(member_features, member_labels)
        models.append(GenderModel(matrix.shape[1], hidden, dropout_rate,
                                  seed=seed))
        inputs.append((matrix,))
        targets.append(label_idx)
    histories = fit_softmax_classifier(models, inputs, targets, config, seeds,
                                       after_epoch)
    for model, history in zip(models, histories):
        model.history = history
    return models[0] if single else models


def write_features(path, ids: Sequence[str], labels: Sequence[str],
                   matrix: np.ndarray, layout: Sequence[str]) -> None:
    """One JSON line per row of `matrix`: the user's id and label, the
    names of the row's parts (`layout`) and its values."""
    with open(path, "w", encoding="utf-8") as fh:
        for user_id, label, row in zip(ids, labels, matrix):
            fh.write(json.dumps({"user_id": user_id, "label": label,
                                 "layout": list(layout),
                                 "values": [float(x) for x in row]}) + "\n")


def read_features(path) -> tuple[list[str], list[str], np.ndarray, tuple[str, ...]]:
    """(ids, labels, (n, F) matrix, layout) of a `write_features` file.
    Every row must have the width and layout of the first; a file without
    rows is an error."""
    ids, labels, rows = [], [], []
    layout = None
    for number, record in jsonl_records(path):
        for field in ("user_id", "label", "layout", "values"):
            if field not in record:
                raise SchemaError(f"missing field {field!r}", number)
        if record["label"] not in CLASSES:
            raise SchemaError(f"unknown label {record['label']!r}", number)
        names, values = record["layout"], record["values"]
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise SchemaError("field 'layout' must be a list of strings", number)
        # type() rather than isinstance() so booleans are not numbers
        if not (isinstance(values, list)
                and all(type(x) in (int, float) for x in values)):
            raise SchemaError("field 'values' must be a list of numbers", number)
        if layout is None:
            first, layout = number, tuple(names)
        elif tuple(names) != layout:
            raise SchemaError(f"field 'layout' is {names} where "
                              f"line {first} has {list(layout)}", number)
        elif len(values) != len(rows[0]):
            raise SchemaError(f"field 'values' holds {len(values)} numbers "
                              f"where line {first} holds {len(rows[0])}",
                              number)
        ids.append(record["user_id"])
        labels.append(record["label"])
        rows.append(values)
    if not rows:
        raise DataError(f"{path} holds no feature rows")
    return ids, labels, np.array(rows, dtype=np.float64), layout
