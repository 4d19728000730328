import numpy as np
import pytest

from sentprofile.corpus import (
    TokenDocument,
    UserRecord,
    VirtualDocument,
    clean_tokens,
)
from sentprofile.embed import doc_matrix, doc_vector
from sentprofile.errors import AllOovError, ConfigError, DataError, ShapeError
from sentprofile.experiment import ExperimentConfig, user_features
from sentprofile.gender import GenderModel
from sentprofile.nn import TrainConfig, load_model, save_model
from sentprofile.sentiment import (
    POLARITY_BATCH,
    SentimentModel,
    build_finetune_model,
    extract_representations,
    head_activations,
    pad_sequences,
    polarity_features,
    polarity_sequences,
    train_sentiment,
)

from conftest import predict_polarity


def integrator_model(input_dim=2, hidden=1):
    """Hand-built model: probability > 0.5 iff the summed first embedding
    coordinate of the consumed tokens is positive.

    All gates are forced open with large biases; the candidate gate reads
    coordinate 0, so the cell accumulates tanh(x0) per step and the head
    passes sign through a sigmoid.
    """
    model = SentimentModel(input_dim=input_dim, hidden_size=hidden,
                           dropout_rate=0.0, seed=0)
    model.lstm.w_x[...] = 0.0
    model.lstm.w_h[...] = 0.0
    model.lstm.bias[...] = 0.0
    model.lstm.bias[:hidden] = 20.0          # input gate open
    model.lstm.bias[hidden:2 * hidden] = 20.0  # forget gate open
    model.lstm.bias[2 * hidden:3 * hidden] = 20.0  # output gate open
    model.lstm.w_x[0, 3 * hidden:] = 1.0     # candidate reads coordinate 0
    model.head.weights[...] = 0.0
    model.head.weights[0, 0] = 10.0
    model.head.bias[...] = 0.0
    model.trained = True
    return model


def marker_items(table, n=60, r=6, seed=0):
    """Tiny polarity set, as (sequences, targets): majority-sign marker
    tokens decide the label, 1 for positive."""
    rng = np.random.default_rng(seed)
    seqs, targets = [], []
    for i in range(n):
        positive = i % 2 == 0
        main = "pos" if positive else "neg"
        other = "neg" if positive else "pos"
        tokens = [f"{main}{rng.integers(0, 4)}" for _ in range(3)]
        tokens += [f"neu{rng.integers(0, 4)}" for _ in range(2)]
        if rng.random() < 0.3:
            tokens.append(f"{other}{rng.integers(0, 4)}")
        order = rng.permutation(len(tokens))
        tokens = [tokens[j] for j in order]
        seqs.append(doc_matrix(TokenDocument(f"it{i}", tuple(tokens)), table, r))
        targets.append(float(positive))
    return seqs, np.array(targets)


class TestTrainSentiment:
    def test_learns_marker_corpus(self, polarity_table):
        model, curve = train_sentiment(
            *marker_items(polarity_table, n=80),
            TrainConfig(epochs=30, batch_size=8, learning_rate=5e-3, seed=1),
            hidden_size=8, dropout_rate=0.2)
        assert max(e.heldout_accuracy for e in curve) >= 0.95
        assert model.trained

    def test_single_class_rejected(self, polarity_table):
        seqs, targets = marker_items(polarity_table, n=10)
        positive = np.flatnonzero(targets == 1.0)
        with pytest.raises(DataError, match="at least 2 items per polarity"):
            train_sentiment([seqs[i] for i in positive], targets[positive],
                            TrainConfig(epochs=1), hidden_size=4)
        # one negative item is still too few
        rows = np.concatenate([positive, np.flatnonzero(targets == 0.0)[:1]])
        with pytest.raises(DataError, match="'negative': 1"):
            train_sentiment([seqs[i] for i in rows], targets[rows],
                            TrainConfig(epochs=1), hidden_size=4)

    def test_zero_epochs_is_config_error(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_same_seed_identical_parameters(self, polarity_table):
        data = marker_items(polarity_table, n=30)
        kwargs = dict(train_config=TrainConfig(epochs=3, batch_size=8, seed=7),
                      hidden_size=4, dropout_rate=0.3)
        m1, _ = train_sentiment(*data, **kwargs)
        m2, _ = train_sentiment(*data, **kwargs)
        assert m1.checksum() == m2.checksum()

    def test_sequences_of_different_lengths_train(self, polarity_table):
        seqs, targets = marker_items(polarity_table, n=20, r=4)
        seqs = [seq[:1 + k % 4] for k, seq in enumerate(seqs)]
        assert len({len(seq) for seq in seqs}) == 4
        model, curve = train_sentiment(seqs, targets,
                                       TrainConfig(epochs=2, batch_size=8),
                                       hidden_size=3)
        assert model.trained and len(curve) == 2



def test_training_matrices_own_only_their_columns(polarity_table):
    # items cut at r=400 but at most 6 tokens long: the training stack runs
    # to the longest item and owns its memory, with no larger view base
    mats, lengths = pad_sequences(marker_items(polarity_table, n=10, r=400)[0])
    assert mats.shape[1] == lengths.max() <= 6
    assert mats.base is None or mats.base.nbytes == mats.nbytes


class TestPredictPolarity:
    def test_probability_in_open_interval(self, polarity_table):
        model = integrator_model()
        rng = np.random.default_rng(0)
        for _ in range(20):
            tokens = tuple(f"pos{rng.integers(0, 4)}" if rng.random() < 0.5
                           else f"neg{rng.integers(0, 4)}"
                           for _ in range(rng.integers(1, 7)))
            p = predict_polarity(model, doc_matrix(TokenDocument("d", tokens),
                                                   polarity_table, 8))
            assert 0.0 < p < 1.0

    def test_zero_parameter_model_gives_half(self, polarity_table):
        model = SentimentModel(input_dim=2, hidden_size=3, dropout_rate=0.0)
        for name, value in model.parameters().items():
            value[...] = 0.0
        model.trained = True
        doc = doc_matrix(TokenDocument("d", ("pos0", "neg1")), polarity_table, 4)
        assert predict_polarity(model, doc) == 0.5

    def test_padding_invariance(self, polarity_table):
        # zero steps past the effective length do not move the probability
        model = integrator_model()
        seq = doc_matrix(TokenDocument("d", ("pos0", "pos1")), polarity_table, 9)
        padded = np.zeros((1, 9, 2), seq.dtype)
        padded[0, :2] = seq
        probs = model.forward_batch((padded, np.array([2])))
        assert predict_polarity(model, seq) == probs[0, 0]

    def test_wrong_dimension_rejected(self, polarity_table):
        model = SentimentModel(input_dim=3, hidden_size=2)
        seq = doc_matrix(TokenDocument("d", ("pos0",)), polarity_table, 4)
        with pytest.raises(ShapeError):
            predict_polarity(model, seq)

    def test_sign_behavior(self, polarity_table):
        model = integrator_model()
        pos = doc_matrix(TokenDocument("d", ("pos0", "pos1", "neu0")),
                         polarity_table, 4)
        neg = doc_matrix(TokenDocument("d", ("neg0", "neg1", "neu0")),
                         polarity_table, 4)
        assert predict_polarity(model, pos) > 0.5 > predict_polarity(model, neg)


def extract_one(model, doc):
    """Batched extraction over a batch of one document."""
    return extract_representations(model, doc[None], np.array([len(doc)]))[0]


def dense_one(model, doc):
    """The pre-sigmoid head activation of one document's final state."""
    return head_activations(model, extract_one(model, doc)[None])[0]


class TestExtractRepresentation:
    def test_deterministic_and_length(self, polarity_table):
        model = integrator_model(hidden=1)
        doc = doc_matrix(TokenDocument("d", ("pos0", "neg0", "pos1")),
                         polarity_table, 5)
        rep1 = extract_one(model, doc)
        rep2 = extract_one(model, doc)
        assert rep1.shape == (1,)
        assert np.array_equal(rep1, rep2)

    def test_matches_direct_lstm_forward(self, polarity_table):
        # the extracted state is the LSTM's final hidden state at the
        # effective length, i.e. its output on the unpadded sequence
        model = integrator_model()
        doc = doc_matrix(TokenDocument("d", ("pos0", "neu1", "neg2")),
                         polarity_table, 6)
        rep = extract_one(model, doc)
        direct = model.lstm.forward(doc[None], np.array([len(doc)]))
        assert np.allclose(rep, direct[0], atol=1e-12)

    def test_frozen_dense_is_presigmoid(self, polarity_table):
        model = integrator_model()
        doc = doc_matrix(TokenDocument("d", ("pos0",)), polarity_table, 3)
        rep = dense_one(model, doc)
        p = predict_polarity(model, doc)
        assert rep.shape == (1,)
        assert 1.0 / (1.0 + np.exp(-rep[0])) == pytest.approx(p)

    def test_untrained_model_rejected(self, polarity_table):
        model = SentimentModel(input_dim=2, hidden_size=2)
        doc = doc_matrix(TokenDocument("d", ("pos0",)), polarity_table, 3)
        with pytest.raises(DataError, match="untrained"):
            extract_one(model, doc)

    def test_extraction_never_mutates_model(self, polarity_table):
        model = integrator_model()
        before = model.checksum()
        for i in range(10):
            doc = doc_matrix(TokenDocument("d", ("pos0", "neg1")),
                             polarity_table, 4)
            (extract_one if i % 2 else dense_one)(model, doc)
        assert model.checksum() == before

    def test_inference_keeps_no_backward_cache(self, polarity_table):
        # extraction, polarity scoring and composite scoring leave the
        # LSTM's backward cache as they found it
        model = integrator_model()
        doc = doc_matrix(TokenDocument("d", ("pos0", "neg1")), polarity_table, 4)
        extract_one(model, doc)
        predict_polarity(model, doc)
        score(model, [UserRecord("u", "male", (("pos0",),))], polarity_table, 4)
        assert model.lstm._cache is None
        composite = build_finetune_model(model, vec_dim=2)
        composite.predict_proba(np.zeros((1, 2)), doc[None],
                                np.array([len(doc)]))
        assert composite.lstm._cache is None

    def test_frozen_dense_is_head_preactivation_across_chunks(self, monkeypatch):
        # 300 rows span two 256-row chunks; each chunk's rows equal, byte
        # for byte, the pre-sigmoid head activation a `forward_batch` over
        # that chunk computes, cut to its longest sequence
        rng = np.random.default_rng(11)
        model = SentimentModel(input_dim=3, hidden_size=5, seed=4)
        model.trained = True
        mats, lengths = pad_sequences([rng.normal(size=(rng.integers(1, 13), 3))
                                       for _ in range(300)])
        reps = head_activations(model,
                                extract_representations(model, mats, lengths))
        expected = []
        head_forward = model.head.forward

        def recorded(x, training=False):
            expected.append(head_forward(x, training=training))
            return expected[-1]
        monkeypatch.setattr(model.head, "forward", recorded)
        for rows in (slice(0, 256), slice(256, 300)):
            model.forward_batch((mats[rows, :lengths[rows].max()], lengths[rows]))
        assert reps.shape == (300, 1)
        assert reps.tobytes() == np.concatenate(expected).tobytes()

    def test_batched_matches_single(self, polarity_table):
        model = integrator_model()
        docs = [doc_matrix(TokenDocument(f"d{i}", ("pos0",) * (i + 1)),
                           polarity_table, 5) for i in range(4)]
        mats, lengths = pad_sequences(docs)
        batch = extract_representations(model, mats, lengths, batch_size=2)
        for i, doc in enumerate(docs):
            single = extract_one(model, doc)
            assert np.allclose(batch[i], single, atol=1e-12)


def score(model, users, table, r):
    """The (n, 2) polarity features of `users` (doc polarity, positive
    rate), and the sequences they were scored from."""
    sequences = polarity_sequences(users, table, r)
    return polarity_features(model, sequences), sequences


class TestPolarityFeatures:
    def test_all_positive_posts(self, polarity_table):
        model = integrator_model()
        user = UserRecord("u", "female", (("pos0", "pos1"), ("pos2",)))
        features, _ = score(model, [user], polarity_table, 4)
        assert features.shape == (1, 2)
        _, positive_rate = features[0]
        assert positive_rate == 1.0

    def test_three_of_four(self, polarity_table):
        model = integrator_model()
        user = UserRecord("u", "male", (("pos0",), ("pos1",), ("pos2",),
                                        ("neg0", "neg1")))
        features, sequences = score(model, [user], polarity_table, 4)
        _, positive_rate = features[0]
        assert positive_rate == 0.75
        assert len(sequences.post_rows[0]) == 4

    def test_single_post_rate_binary(self, polarity_table):
        model = integrator_model()
        for tokens, expected in ((("pos0",), 1.0), (("neg0",), 0.0)):
            user = UserRecord("u", "male", (tokens,))
            features, _ = score(model, [user], polarity_table, 2)
            _, positive_rate = features[0]
            assert positive_rate == expected

    def test_rate_complement(self, polarity_table):
        model = integrator_model()
        rng = np.random.default_rng(1)
        for trial in range(10):
            posts = tuple(
                tuple(f"pos{rng.integers(0, 4)}" if rng.random() < 0.5
                      else f"neg{rng.integers(0, 4)}"
                      for _ in range(rng.integers(1, 5)))
                for _ in range(rng.integers(1, 6)))
            user = UserRecord(f"u{trial}", "male", posts)
            features, sequences = score(model, [user], polarity_table, 6)
            _, positive_rate = features[0]
            post_count = len(sequences.post_rows[0])
            negatives = sum(
                1 for post in posts
                if predict_polarity(model, doc_matrix(
                    TokenDocument("p", post), polarity_table, 6)) <= 0.5)
            assert 0.0 <= positive_rate <= 1.0
            assert positive_rate == pytest.approx(1.0 - negatives / post_count)

    def test_all_oov_posts_error(self, polarity_table):
        user = UserRecord("u", "male", (("zzz",), ("qqq",)))
        with pytest.raises(AllOovError):
            polarity_sequences([user], polarity_table, r=3)

    def test_unscoreable_posts_excluded_from_rate(self, polarity_table):
        model = integrator_model()
        user = UserRecord("u", "male", (("pos0",), ("zzz",)))
        features, sequences = score(model, [user], polarity_table, 3)
        _, positive_rate = features[0]
        assert len(sequences.post_rows[0]) == 1
        assert positive_rate == 1.0

    def test_doc_polarity_uses_whole_document(self, polarity_table):
        model = integrator_model()
        user = UserRecord("u", "male", (("pos0", "pos1"), ("neg0",)))
        features, _ = score(model, [user], polarity_table, 6)
        doc_polarity, _ = features[0]
        doc = doc_matrix(TokenDocument("d", ("pos0", "pos1", "neg0")),
                         polarity_table, 6)
        assert doc_polarity == pytest.approx(predict_polarity(model, doc))


    def test_batched_matches_per_user_reference(self, polarity_table):
        # mixed post counts, unscoreable posts, user documents cut at r and
        # lengths spread over several chunks
        rng = np.random.default_rng(7)
        model = SentimentModel(input_dim=2, hidden_size=4, seed=3)
        model.head.weights *= 5.0
        words = [f"{kind}{i}" for kind in ("pos", "neg", "neu") for i in range(4)]
        users = []
        for n in range(60):
            posts = [tuple(rng.choice(words, size=rng.integers(1, 15)))]
            for _ in range(rng.integers(0, 6)):
                posts.append(("zzz", "qqq") if rng.random() < 0.2 else
                             tuple(rng.choice(words, size=rng.integers(1, 15))))
            users.append(UserRecord(f"u{n}", "male", tuple(posts)))
        r = 30
        scored, sequences = score(model, users, polarity_table, r)
        post_counts = [len(rows) for rows in sequences.post_rows]
        assert len(users) + sum(post_counts) > 3 * POLARITY_BATCH
        assert len(scored) == len(users)
        for user, (doc_polarity, positive_rate), post_count in zip(
                users, scored, post_counts):
            probs, tokens = [], []
            for post in user.posts:
                cleaned = clean_tokens(post)
                tokens.extend(cleaned)
                try:
                    probs.append(predict_polarity(model, doc_matrix(
                        TokenDocument("p", tuple(cleaned)), polarity_table, r)))
                except AllOovError:
                    continue
            doc = predict_polarity(model, doc_matrix(
                TokenDocument("d", tuple(tokens)), polarity_table, r))
            assert post_count == len(probs)
            assert positive_rate == sum(p > 0.5 for p in probs) / len(probs)
            assert abs(doc_polarity - doc) <= 1e-12

    def test_all_oov_user_named_in_batch(self, polarity_table):
        users = [UserRecord("ok1", "male", (("pos0",),)),
                 UserRecord("lost", "female", (("zzz",), ("qqq",))),
                 UserRecord("ok2", "male", (("neg0",),))]
        with pytest.raises(AllOovError, match="'lost'"):
            polarity_sequences(users, polarity_table, r=3)


def test_extracted_representations_linearly_separable_by_polarity(polarity_table):
    # a logistic probe on the frozen hidden states recovers the polarity
    # the model was trained on
    from sentprofile.nn import (
        DenseLayer,
        binary_cross_entropy,
        make_optimizer,
        sigmoid,
    )

    seqs, targets = marker_items(polarity_table, n=100, seed=4)
    model, _ = train_sentiment(
        seqs, targets,
        TrainConfig(epochs=30, batch_size=8, learning_rate=5e-3, seed=2),
        hidden_size=8, dropout_rate=0.2)
    mats, lengths = pad_sequences(seqs)
    h = extract_representations(model, mats, lengths)
    y = targets[:, None]

    probe = DenseLayer(h.shape[1], 1, rng=np.random.default_rng(0))
    optimizer = make_optimizer(TrainConfig(epochs=1, learning_rate=5e-2))
    for _ in range(300):
        _, d_logits = binary_cross_entropy(
            sigmoid(probe.forward(h, training=True)), y)
        probe.backward(d_logits)
        optimizer.step(probe.params(), probe.grads)
    accuracy = ((sigmoid(probe.forward(h)) > 0.5) == (y > 0.5)).mean()
    assert accuracy >= 0.95


class TestCheckpointing:
    def test_sentiment_round_trip(self, polarity_table, tmp_path):
        model = integrator_model()
        path = tmp_path / "sent.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, SentimentModel)
        assert loaded.trained
        doc = doc_matrix(TokenDocument("d", ("pos0", "neg1")), polarity_table, 4)
        assert predict_polarity(model, doc) == predict_polarity(loaded, doc)


class TestFinetune:
    def make_training_rows(self, table, n=24, r=5, seed=3):
        rng = np.random.default_rng(seed)
        vecs, seqs, labels = [], [], []
        for i in range(n):
            kind = "pos" if i % 2 == 0 else "neg"
            tokens = tuple(f"{kind}{rng.integers(0, 4)}"
                           for _ in range(rng.integers(1, r + 1)))
            doc = TokenDocument(f"d{i}", tokens)
            vecs.append(doc_vector(doc, table))
            seqs.append(doc_matrix(doc, table, r))
            labels.append(i % 2)
        return (np.stack(vecs), *pad_sequences(seqs), np.array(labels))

    def test_requires_trained_model(self):
        model = SentimentModel(input_dim=2, hidden_size=2)
        with pytest.raises(DataError):
            build_finetune_model(model, vec_dim=2)

    def test_parameter_count_additivity(self, polarity_table):
        base = integrator_model(hidden=3)
        composite = build_finetune_model(base, vec_dim=2, hidden=(5, 3))
        lstm_params = sum(v.size for v in base.lstm.params().values())
        mlp_params = sum(v.size for k, v in composite.parameters().items()
                         if k.startswith("mlp."))
        total = sum(v.size for v in composite.parameters().values())
        assert total == lstm_params + mlp_params

    def test_one_step_changes_lstm_parameters(self, polarity_table):
        from sentprofile.sentiment import train_finetune

        base = integrator_model(hidden=2)
        composite = build_finetune_model(base, vec_dim=2, hidden=(4, 3), seed=1)
        vecs, mats, lengths, labels = self.make_training_rows(polarity_table)
        before = {k: v.copy() for k, v in composite.parameters().items()
                  if k.startswith("lstm.")}
        train_finetune(composite, vecs, mats, lengths, labels,
                       TrainConfig(epochs=1, batch_size=8, seed=0))
        changed = any(not np.array_equal(before[k], v)
                      for k, v in composite.parameters().items()
                      if k.startswith("lstm."))
        assert changed

    def test_finetuning_does_not_touch_source_model(self, polarity_table):
        from sentprofile.sentiment import train_finetune

        base = integrator_model(hidden=2)
        checksum = base.checksum()
        composite = build_finetune_model(base, vec_dim=2, seed=2)
        vecs, mats, lengths, labels = self.make_training_rows(polarity_table)
        train_finetune(composite, vecs, mats, lengths, labels,
                       TrainConfig(epochs=1, batch_size=8, seed=0))
        assert base.checksum() == checksum

    def test_finetuning_leaves_trained_source_model_unchanged(self,
                                                              polarity_table):
        # a trained model's LSTM lives in its flat parameter buffer; the
        # composite trains a copy in a buffer of its own
        from sentprofile.sentiment import train_finetune

        base, _ = train_sentiment(*marker_items(polarity_table, n=30, r=5),
                                  TrainConfig(epochs=2, batch_size=8, seed=0),
                                  hidden_size=2)
        checksum = base.checksum()
        composite = build_finetune_model(base, vec_dim=2, hidden=(4, 3), seed=2)
        vecs, mats, lengths, labels = self.make_training_rows(polarity_table)
        train_finetune(composite, vecs, mats, lengths, labels,
                       TrainConfig(epochs=2, batch_size=8, seed=0))
        assert base.checksum() == checksum
        assert composite.checksum() != checksum
        assert not np.shares_memory(composite.buffers()[0], base.buffers()[0])
        assert not any(np.shares_memory(value, base.buffers()[0])
                       for value in composite.parameters().values())

    def test_snapshot_matches_fresh_run(self, polarity_table):
        # the composite seen after epoch e equals one trained for exactly e
        from sentprofile.sentiment import train_finetune

        base = integrator_model(hidden=2)
        vecs, mats, lengths, labels = self.make_training_rows(polarity_table)
        snapshots = {}

        def after_epoch(model, epoch):
            snapshots[epoch] = (model.predict_proba(vecs, mats, lengths).tobytes(),
                                {k: v.copy() for k, v in model.parameters().items()})

        composite = build_finetune_model(base, vec_dim=2, hidden=(4, 3), seed=3)
        train_finetune(composite, vecs, mats, lengths, labels,
                       TrainConfig(epochs=4, batch_size=8, seed=1),
                       after_epoch=after_epoch)
        assert sorted(snapshots) == [1, 2, 3, 4]
        for epoch in (1, 2, 4):
            fresh = build_finetune_model(base, vec_dim=2, hidden=(4, 3), seed=3)
            train_finetune(fresh, vecs, mats, lengths, labels,
                           TrainConfig(epochs=epoch, batch_size=8, seed=1))
            probs, params = snapshots[epoch]
            assert probs == fresh.predict_proba(vecs, mats, lengths).tobytes()
            assert all(np.array_equal(params[k], v)
                       for k, v in fresh.parameters().items())

    def test_frozen_limit_matches_precomputed_features(self, polarity_table):
        # before any training the composite is the frozen pipeline: a gender
        # MLP with the same seed on [document vector, final hidden state]
        base = integrator_model(hidden=2)
        vecs, mats, lengths, _ = self.make_training_rows(polarity_table)
        h = extract_representations(base, mats, lengths)
        features = np.concatenate([vecs, h], axis=1)
        frozen = GenderModel(features.shape[1], hidden=(50, 10),
                             dropout_rate=0.4, seed=5)
        composite = build_finetune_model(base, vec_dim=2, hidden=(50, 10),
                                         dropout_rate=0.4, seed=5)
        assert np.allclose(frozen.predict_proba(features),
                           composite.predict_proba(vecs, mats, lengths),
                           atol=1e-10)

    def test_trained_models_keep_no_backward_cache(self, polarity_table):
        # nothing reads the LSTM's backward cache after training: a trained
        # model, a composite built from it and a trained composite drop it
        from sentprofile.sentiment import train_finetune

        base, _ = train_sentiment(*marker_items(polarity_table, n=30, r=5),
                                  TrainConfig(epochs=2, batch_size=8, seed=0),
                                  hidden_size=2)
        assert base.lstm._cache is None
        composite = build_finetune_model(base, vec_dim=2, hidden=(4, 3), seed=2)
        assert composite.lstm._cache is None
        vecs, mats, lengths, labels = self.make_training_rows(polarity_table)
        train_finetune(composite, vecs, mats, lengths, labels,
                       TrainConfig(epochs=1, batch_size=8, seed=0))
        assert composite.lstm._cache is None


def old_layout_stack(token_docs, table, r):
    """The stack the padded document layout gave: each document's first r
    in-vocabulary word vectors as the columns of a zero-padded (d, r)
    matrix, transposed, and the stack cut to the longest document. The
    word vectors are rounded to float32, as `doc_matrix` rounds them."""
    columns = [[table[t] for t in tokens if t in table][:r]
               for tokens in token_docs]
    padded = []
    for cols in columns:
        values = np.zeros((table.dimension, r), np.float32)
        values[:, :len(cols)] = np.column_stack(cols)
        padded.append(values)
    t = max(len(cols) for cols in columns)
    return (np.stack([values.T[:t] for values in padded]),
            np.array([len(cols) for cols in columns]))


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestStacksMatchPaddedLayout:
    """Every batch built from (length, d) sequences holds the bytes the
    padded (d, r) layout gave."""

    WORDS = [f"{kind}{i}" for kind in ("pos", "neg", "neu") for i in range(4)]

    def token_docs(self, n, seed, oov=()):
        rng = np.random.default_rng(seed)
        return [tuple(rng.choice(self.WORDS + list(oov),
                                 size=rng.integers(1, 10)))
                for _ in range(n)]

    def test_training_stack(self, polarity_table):
        docs = self.token_docs(30, seed=1, oov=("zzz",))
        docs = [tokens for tokens in docs
                if any(t in polarity_table for t in tokens)]
        mats, lengths = pad_sequences([
            doc_matrix(TokenDocument(f"i{k}", tokens), polarity_table, 6)
            for k, tokens in enumerate(docs)])
        old_mats, old_lengths = old_layout_stack(docs, polarity_table, 6)
        assert_same_bytes(mats, old_mats)
        assert_same_bytes(lengths, old_lengths)

    def test_target_stack(self, polarity_table):
        docs = [VirtualDocument(user_id=f"u{k}", gender="male", tokens=tokens)
                for k, tokens in enumerate(self.token_docs(30, seed=2,
                                                           oov=("zzz",)))]
        docs.append(VirtualDocument(user_id="lost", gender="male",
                                    tokens=("zzz",)))
        kept, _, mats, lengths, _ = user_features(
            ExperimentConfig(r=6), {"frozen_lstm"}, [], docs, polarity_table)
        assert "lost" not in {doc.user_id for doc in kept}
        old_mats, old_lengths = old_layout_stack(
            [doc.tokens for doc in kept], polarity_table, 6)
        assert_same_bytes(mats, old_mats)
        assert_same_bytes(lengths, old_lengths)

    def test_polarity_chunks(self, polarity_table, monkeypatch):
        rng = np.random.default_rng(3)
        users = [UserRecord(f"u{n}", "male", tuple(
                     self.token_docs(int(rng.integers(1, 5)), seed=100 + n)))
                 for n in range(40)]
        r = 7
        sequences = polarity_sequences(users, polarity_table, r)
        # the input rows in order: each user's posts, then the user document
        rows = []
        for user in users:
            rows.extend(clean_tokens(post) for post in user.posts)
            rows.append([t for post in user.posts for t in clean_tokens(post)])
        ordered = [rows[i] for i in sequences.order]
        assert len(ordered) > 2 * POLARITY_BATCH

        chunks = []
        forward_batch = SentimentModel.forward_batch

        def recorded(self, inputs, training=False):
            chunks.append(inputs)
            return forward_batch(self, inputs, training=training)

        monkeypatch.setattr(SentimentModel, "forward_batch", recorded)
        polarity_features(integrator_model(), sequences)
        assert len(chunks) == -(-len(ordered) // POLARITY_BATCH)
        for k, (mats, lengths) in enumerate(chunks):
            chunk = ordered[k * POLARITY_BATCH:(k + 1) * POLARITY_BATCH]
            old_mats, old_lengths = old_layout_stack(chunk, polarity_table, r)
            assert_same_bytes(mats, old_mats)
            assert np.array_equal(lengths, old_lengths)
