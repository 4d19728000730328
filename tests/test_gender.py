from dataclasses import replace

import numpy as np
import pytest

from sentprofile.errors import DataError, SchemaError, ShapeError
from sentprofile.gender import (
    CLASSES,
    GenderModel,
    read_features,
    train_gender,
    write_features,
)
from sentprofile.nn import (
    DenseLayer,
    LSTMLayer,
    TrainConfig,
    load_model,
    save_model,
    softmax,
)
from sentprofile.sentiment import (
    FinetuneModel,
    SentimentModel,
    build_finetune_model,
    train_finetune,
)


def separable_features(n=60, seed=0):
    rng = np.random.default_rng(seed)
    labels = ["male" if i % 2 == 0 else "female" for i in range(n)]
    offset = np.array([3.0, -3.0])
    rows = [rng.normal(size=2) + (offset if l == "male" else -offset)
            for l in labels]
    return np.stack(rows), labels


class TestTrainGender:
    def test_learns_separable_data(self):
        features, labels = separable_features()
        model = train_gender(features, labels,
                             TrainConfig(epochs=200, batch_size=16,
                                         learning_rate=3e-3, seed=0))
        probs = model.predict_proba(features)
        truth = np.array([CLASSES.index(label) for label in labels])
        assert (probs.argmax(axis=1) == truth).mean() >= 0.99

    def test_fit_runs_no_inference_forward(self, monkeypatch):
        # the class count comes from CLASSES, so without `after_epoch` a fit
        # runs every forward, the composite's LSTM ones included, in
        # training mode (for the LSTM: keeping its backward cache)
        seen = []
        for owner, name, flag, default in (
                (GenderModel, "forward_batch", "training", False),
                (FinetuneModel, "forward_batch", "training", False),
                (LSTMLayer, "forward", "cache", True)):
            def recorded(self, *args, _original=getattr(owner, name),
                         _name=name, _flag=flag, _default=default, **kwargs):
                seen.append((_name, kwargs.get(_flag, _default)))
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(owner, name, recorded)
        config = TrainConfig(epochs=2, batch_size=4, seed=0)
        features, labels = separable_features(n=12)
        train_gender(features, labels, config)

        rng = np.random.default_rng(1)
        sentiment = SentimentModel(input_dim=3, hidden_size=2)
        sentiment.trained = True
        composite = build_finetune_model(sentiment, vec_dim=4, hidden=(5, 3))
        train_finetune(composite, rng.normal(size=(12, 4)),
                       rng.normal(size=(12, 5, 3)), rng.integers(1, 6, size=12),
                       np.arange(12) % 2, config)
        assert ("forward", True) in seen
        assert [entry for entry in seen if not entry[1]] == []

    def test_snapshot_matches_fresh_run(self):
        # the model seen after epoch e equals one trained for exactly e
        features, labels = separable_features(n=40)
        snapshots = {}

        def after_epoch(model, epoch):
            snapshots[epoch] = (model.predict_proba(features).tobytes(),
                                model.checksum())

        config = TrainConfig(epochs=6, batch_size=8, seed=2)
        train_gender(features, labels, config, after_epoch=after_epoch)
        assert sorted(snapshots) == list(range(1, 7))
        for epoch in (1, 3, 6):
            fresh = train_gender(features, labels,
                                 TrainConfig(epochs=epoch, batch_size=8, seed=2))
            assert snapshots[epoch] == (fresh.predict_proba(features).tobytes(),
                                        fresh.checksum())

    def test_single_class_rejected(self):
        features = np.zeros((4, 2))
        with pytest.raises(DataError):
            train_gender(features, ["male"] * 4, TrainConfig(epochs=1))

    def test_unknown_label_rejected(self):
        features = np.zeros((2, 2))
        with pytest.raises(DataError):
            train_gender(features, ["male", "robot"], TrainConfig(epochs=1))

    def test_same_seed_same_checksum(self):
        features, labels = separable_features(n=20)
        config = TrainConfig(epochs=5, batch_size=8, seed=3)
        m1 = train_gender(features, labels, config)
        m2 = train_gender(features, labels, config)
        assert m1.checksum() == m2.checksum()

    def test_architecture_shapes(self):
        features, labels = separable_features(n=12)
        model = train_gender(features, labels, TrainConfig(epochs=1, seed=0))
        dims = [(l.in_dim, l.out_dim) for l in model.network.layers
                if hasattr(l, "in_dim")]
        assert dims == [(2, 50), (50, 10), (10, 2)]
        dropouts = model.network.dropout_layers()
        assert len(dropouts) == 1 and dropouts[0].rate == 0.4
        # dropout sits right after the first hidden layer
        assert model.network.layers[1] is dropouts[0]


def noisy_features(n, width=56, seed=0):
    """Features whose labels follow a noisy linear rule, so training keeps
    moving the parameters for many epochs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, width))
    score = x[:, 0] + x[:, 1] + rng.normal(size=n)
    labels = [CLASSES[int(v > 0)] for v in score]
    return x, labels


def flat_parameters(model):
    return np.concatenate([v.ravel() for v in model.parameters().values()])


def scored_training(features, labels, config, test, grid, seeds=None):
    """`train_gender` alone (`seeds` None) or as a stack; returns the models
    and, per model, its test probabilities at each grid epoch."""
    members = 1 if seeds is None else len(seeds)
    scores = [{} for _ in range(members)]

    def scorer(j):
        def after_epoch(model, epoch):
            if epoch in grid:
                scores[j][epoch] = model.predict_proba(test).tobytes()
        return after_epoch

    if seeds is None:
        return [train_gender(features, labels, config,
                             after_epoch=scorer(0))], scores
    return train_gender(features, labels, config,
                        after_epoch=[scorer(j) for j in range(members)],
                        seeds=seeds), scores


class TestTrainGenderStack:
    """Folds of one shape train in lockstep as one stacked model; each
    member must end as it would alone, to the byte."""

    @pytest.mark.parametrize("rows, batch", [(104, 32), (100, 11)])
    def test_matches_separate_runs(self, rows, batch):
        # 104 rows in batches of 32 leave a last batch of 8; ten batches of
        # 11 give each epoch's mean loss a pairwise sum
        data = [noisy_features(rows, seed=seed) for seed in range(5)]
        test = noisy_features(21, seed=9)[0]
        config = TrainConfig(epochs=30, batch_size=batch, learning_rate=3e-3)
        seeds, grid = [17, 3, 99, 3, 41], {5, 17, 30}
        stacked, stacked_scores = scored_training(
            [x for x, _ in data], [y for _, y in data], config, test, grid,
            seeds)
        assert len(stacked) == len(seeds)
        for j, ((x, y), seed) in enumerate(zip(data, seeds)):
            [alone], [scores] = scored_training(
                x, y, replace(config, seed=seed), test, grid)
            member = stacked[j]
            assert flat_parameters(member).tobytes() == \
                flat_parameters(alone).tobytes()
            assert member.checksum() == alone.checksum()
            assert member.history == alone.history
            assert sorted(scores) == sorted(grid)
            assert stacked_scores[j] == scores

    def test_members_own_rows_of_one_buffer(self):
        data = [noisy_features(12, width=3, seed=seed) for seed in range(3)]
        models = train_gender([x for x, _ in data], [y for _, y in data],
                              TrainConfig(epochs=2, batch_size=4),
                              seeds=[0, 1, 2])
        rows = [model.buffers()[0] for model in models]
        assert all(np.shares_memory(rows[0].base, row) for row in rows)
        for model, row in zip(models, rows):
            assert np.array_equal(flat_parameters(model), row)
            for value in model.parameters().values():
                assert np.shares_memory(value, row)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(rows) for b in rows[i + 1:])

    def test_members_of_different_shapes_rejected(self):
        data = [noisy_features(n, width=3) for n in (12, 13)]
        with pytest.raises(ShapeError, match="one shape"):
            train_gender([x for x, _ in data], [y for _, y in data],
                         TrainConfig(epochs=1), seeds=[0, 1])


def reference_training(features, labels, config, dropout_rate):
    """One gender MLP trained by a plain 2-D loop, the step written out as
    `x @ w + b`, `np.maximum`, a fresh `rng.random(shape)` mask scaled by
    `keep / (1 - rate)`, the whole backward (the first layer's input
    gradient included) and Adam on each named array; the generators are
    derived from `config.seed` as `fit_softmax_classifier` does. Returns
    the flat parameters and the {epoch, train_loss} history."""
    model = GenderModel(features.shape[1], dropout_rate=dropout_rate,
                        seed=config.seed)
    p = {name: value.copy() for name, value in model.parameters().items()}
    m = {name: np.zeros_like(value) for name, value in p.items()}
    v = {name: np.zeros_like(value) for name, value in p.items()}
    batch_seed, dropout_seed = np.random.SeedSequence(config.seed).spawn(2)
    order_rng = np.random.default_rng(batch_seed)
    mask_rng = np.random.default_rng(dropout_seed.spawn(1)[0])
    targets = np.eye(len(CLASSES))[[CLASSES.index(l) for l in labels]]
    lr, n, t, history = config.learning_rate, len(labels), 0, []
    for epoch in range(config.epochs):
        perm = order_rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            x, y = features[idx], targets[idx]
            z1 = x @ p["layer0.weights"] + p["layer0.bias"]
            h1 = np.maximum(z1, 0.0)
            mask = 1.0
            if dropout_rate:
                keep = mask_rng.random(h1.shape) >= dropout_rate
                mask = keep / (1.0 - dropout_rate)
            hd = h1 * mask
            z2 = hd @ p["layer2.weights"] + p["layer2.bias"]
            h2 = np.maximum(z2, 0.0)
            logits = h2 @ p["layer3.weights"] + p["layer3.bias"]
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            losses.append(-(y * np.log(np.clip(probs, 1e-12, 1.0))).sum()
                          / len(idx))
            d3 = (probs - y) / len(idx)
            d2 = (d3 @ p["layer3.weights"].T) * (z2 > 0.0)
            d_hd = d2 @ p["layer2.weights"].T
            d1 = (d_hd * mask if dropout_rate else d_hd) * (z1 > 0.0)
            d1 @ p["layer0.weights"].T  # the input gradient, which nothing reads
            grads = {"layer0.weights": x.T @ d1, "layer0.bias": d1.sum(axis=0),
                     "layer2.weights": hd.T @ d2, "layer2.bias": d2.sum(axis=0),
                     "layer3.weights": h2.T @ d3, "layer3.bias": d3.sum(axis=0)}
            t += 1
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + ((1.0 - 0.999) * g) * g
                p[name] -= (lr * (m[name] / (1.0 - 0.9 ** t))) / (
                    np.sqrt(v[name] / (1.0 - 0.999 ** t)) + 1e-8)
        history.append({"epoch": epoch + 1,
                        "train_loss": float(np.mean(losses))})
    return np.concatenate([value.ravel() for value in p.values()]), history


class TestFitMatchesReference:
    """`fit` of a gender stack keeps the bytes of the plain reference step,
    whatever buffers its layers reuse and whatever products they skip."""

    @pytest.mark.parametrize("members", [1, 5])
    @pytest.mark.parametrize("dropout_rate", [0.4, 0.0])
    def test_parameter_and_loss_bytes(self, members, dropout_rate):
        # 35 rows in batches of 4: eight full batches and a short one of
        # 3, so the epoch mean is a pairwise sum and the masks change shape
        data = [noisy_features(35, width=6, seed=seed) for seed in range(members)]
        seeds = [11, 4, 4, 90, 2][:members]
        config = TrainConfig(epochs=3, batch_size=4, learning_rate=3e-3)
        models = train_gender([x for x, _ in data], [y for _, y in data],
                              config, dropout_rate=dropout_rate, seeds=seeds)
        for model, (x, y), seed in zip(models, data, seeds):
            params, history = reference_training(
                x, y, replace(config, seed=seed), dropout_rate)
            assert flat_parameters(model).tobytes() == params.tobytes()
            assert model.history == history


class TestPredictGender:
    """Predictions are `predict_proba` plus argmax over CLASSES, the rule
    the experiment scores each fold with."""

    def test_probabilities_sum_to_one(self):
        features, labels = separable_features(n=20)
        model = train_gender(features, labels, TrainConfig(epochs=3, seed=0))
        probs = model.predict_proba(features)
        assert probs.shape == (20, len(CLASSES))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_argmax_shift_invariance(self):
        # adding a constant to both logits leaves the label unchanged
        model = GenderModel(input_dim=2, seed=0)
        final = model.network.layers[-1]
        x = np.random.default_rng(0).normal(size=(5, 2))
        before = model.predict_proba(x).argmax(axis=1)
        final.bias[...] += 7.3
        after = model.predict_proba(x).argmax(axis=1)
        assert before.tolist() == after.tolist()

    def test_zero_parameter_model_ties_to_first_class(self):
        model = GenderModel(input_dim=3, seed=0)
        for value in model.parameters().values():
            value[...] = 0.0
        probs = model.predict_proba(np.ones(3))
        assert np.allclose(probs, [[0.5, 0.5]])
        assert CLASSES[int(probs.argmax(axis=1)[0])] == "male"

    def test_scoring_keeps_no_backward_cache(self):
        # an inference forward caches nothing, so a scored model does not
        # keep its caller's test matrix alive, and no backward can pair
        # with it
        features, labels = separable_features(n=20)
        model = train_gender(features, labels, TrainConfig(epochs=2, seed=0))
        dense = [layer for layer in model.network.layers
                 if isinstance(layer, DenseLayer)]
        assert len(dense) == 3
        # training drops the last batch's caches when it ends
        assert all(layer._cache is None for layer in dense)
        test = np.random.default_rng(1).normal(size=(500, 2))
        model.predict_proba(test)
        assert all(layer._cache is None for layer in dense)
        with pytest.raises(ShapeError, match="backward before forward"):
            model.network.backward(np.ones((500, len(CLASSES))))

    def test_wrong_length_rejected(self):
        model = GenderModel(input_dim=4, seed=0)
        with pytest.raises(ShapeError):
            model.predict_proba(np.ones(5))

    def test_scores_through_forward_batch(self, monkeypatch):
        # one inference `forward_batch` per call, like the composite's
        # `predict_proba`, so both heads' scoring forwards can be counted
        seen = []
        original = GenderModel.forward_batch

        def recorded(self, inputs, training=False):
            seen.append((len(inputs), inputs[0].shape, training))
            return original(self, inputs, training=training)
        monkeypatch.setattr(GenderModel, "forward_batch", recorded)
        model = GenderModel(input_dim=3, seed=0)
        probs = model.predict_proba(np.ones(3))
        assert seen == [(1, (1, 3), False)]
        assert probs.tobytes() == softmax(model.network.forward(
            np.ones((1, 3)), training=False)).tobytes()


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        matrix = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.1]])
        path = tmp_path / "features.jsonl"
        write_features(path, ["u1", "u2"], ["male", "female"], matrix,
                       ("doc_vector", "sentiment"))
        ids, labels, loaded, layout = read_features(path)
        assert (ids, labels) == (["u1", "u2"], ["male", "female"])
        assert layout == ("doc_vector", "sentiment")
        assert loaded.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_file_without_rows_rejected(self, tmp_path, text):
        path = tmp_path / "features.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="no feature rows"):
            read_features(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text('{"user_id": "u", "label": "x", "layout": ["doc_vector"], '
                        '"values": [1.0]}\n', encoding="utf-8")
        with pytest.raises(SchemaError):
            read_features(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "features.jsonl"
        path.write_text('{"user_id": "u", "label": "male"}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="layout|values"):
            read_features(path)

    @pytest.mark.parametrize("layout, values, field", [
        ('["doc_vector"]', '["x"]', "values"),
        ('["doc_vector"]', '[true]', "values"),
        ('["doc_vector"]', '1.0', "values"),
        ('"doc_vector"', '[1.0]', "layout"),
        ('["doc_vector", 2]', '[1.0]', "layout"),
        ('["doc_vector"]', '[1.0, 2.0]', "values"),
        ('["sentiment"]', '[1.0]', "layout"),
    ], ids=["string-value", "bool-value", "scalar-values", "string-layout",
            "number-in-layout", "mixed-width", "mixed-layout"])
    def test_mistyped_field_rejected_with_line(self, tmp_path, layout, values,
                                               field):
        path = tmp_path / "features.jsonl"
        good = ('{"user_id": "u1", "label": "male", "layout": ["doc_vector"], '
                '"values": [1.0]}\n')
        bad = (f'{{"user_id": "u2", "label": "male", "layout": {layout}, '
               f'"values": {values}}}\n')
        path.write_text(good + bad, encoding="utf-8")
        with pytest.raises(SchemaError, match=f"line 2: field '{field}'"):
            read_features(path)


def test_gender_model_checkpoint_round_trip(tmp_path):
    features, labels = separable_features(n=20)
    model = train_gender(features, labels, TrainConfig(epochs=3, seed=1))
    path = tmp_path / "gender.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, GenderModel)
    assert np.array_equal(model.predict_proba(features),
                          loaded.predict_proba(features))
