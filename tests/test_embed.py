import math
from collections import Counter

import numpy as np
import pytest

from sentprofile import embed
from sentprofile.corpus import TokenDocument, VirtualDocument
from sentprofile.embed import (
    EmbedConfig,
    EmbeddingTable,
    doc_matrix,
    doc_vector,
    gender_keywords,
    in_vocabulary,
    load_embeddings,
    save_embeddings,
    tfidf_representation,
    train_skipgram,
)
from sentprofile.errors import AllOovError, ConfigError, DataError, FormatError


def cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def vdoc(user_id, tokens, gender="male"):
    return VirtualDocument(user_id=user_id, gender=gender, tokens=tuple(tokens))


class TestTrainSkipgram:
    def test_cooccurrence_structure(self):
        docs = []
        for i in range(200):
            docs.append(["p1", "p2"] * 4 if i % 2 == 0 else ["q1", "q2"] * 4)
        table = train_skipgram(docs, EmbedConfig(dimension=16, window=2,
                                                 negatives=4, epochs=4,
                                                 min_count=1, seed=3))
        assert cosine(table["p1"], table["p2"]) > cosine(table["p1"], table["q1"])
        assert cosine(table["q1"], table["q2"]) > cosine(table["q1"], table["p2"])

    def test_min_count_filters_and_empty_table(self):
        docs = [["a", "b", "a"]]
        table = train_skipgram(docs, EmbedConfig(dimension=4, min_count=2,
                                                 epochs=1, seed=0))
        assert "a" in table and "b" not in table
        with pytest.raises(DataError, match="empty"):
            train_skipgram(docs, EmbedConfig(dimension=4, min_count=10,
                                             epochs=1, seed=0))

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            train_skipgram([], EmbedConfig(dimension=4))

    def test_deterministic_bitwise(self):
        docs = [["a", "b", "c", "a"], ["b", "c", "b", "a"]]
        config = EmbedConfig(dimension=8, window=2, negatives=3, epochs=3,
                             min_count=1, seed=11)
        t1 = train_skipgram(docs, config)
        t2 = train_skipgram(docs, config)
        assert len(t1) == len(t2)
        for token, vector in t1.items():
            assert np.array_equal(vector, t2[token])


def reference_start(documents, config):
    """What `train_skipgram` starts from: the vocabulary {token: row}, the
    documents as rows of in-vocabulary tokens (the empty ones dropped),
    the noise distribution's cdf and the word and context tables."""
    token_docs = [list(doc) for doc in documents]
    counts = Counter(t for doc in token_docs for t in doc)
    vocab = [t for t, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
             if c >= config.min_count]
    index = {t: i for i, t in enumerate(vocab)}
    encoded = [[index[t] for t in doc if t in index] for doc in token_docs]
    encoded = [doc for doc in encoded if doc]
    freqs = np.array([counts[t] for t in vocab], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(freqs / freqs.sum())
    noise_cdf[-1] = 1.0
    rng = np.random.default_rng(config.seed)
    d = config.dimension
    vecs = (rng.random((len(vocab), d)) - 0.5) / d
    return index, encoded, noise_cdf, vecs, np.zeros((len(vocab), d))


def reference_skipgram(encoded, vecs, ctx, rng, noise_cdf, config,
                       processed, total):
    """One shard's pass, the per-centre loop `embed._train_shard` computes
    in bulk, in place on the tables: for each centre of the documents
    `encoded`, in order, build its context and negatives from `rng`, then
    take one SGD step, the learning rate decaying from centre `processed`
    over `total`."""
    k = config.negatives
    for doc in encoded:
        doc_arr = np.asarray(doc, dtype=np.int64)
        n = len(doc_arr)
        widths = rng.integers(1, config.window + 1, size=n)
        lefts = np.maximum(0, np.arange(n) - widths)
        rights = np.minimum(n, np.arange(n) + 1 + widths)
        sizes = rights - lefts - 1
        if k > 0:
            negs_all = np.searchsorted(noise_cdf,
                                       rng.random((int(sizes.sum()), k)))
        offset = 0
        for i in range(n):
            lr = max(embed.MIN_LR,
                     embed.INITIAL_LR * (1.0 - processed / total))
            processed += 1
            m = int(sizes[i])
            if m == 0:
                continue
            context = np.concatenate([doc_arr[lefts[i]:i],
                                      doc_arr[i + 1:rights[i]]])
            if k > 0:
                negs = negs_all[offset:offset + m]
                offset += m
                keep = (negs != context[:, None]).reshape(-1)
                targets = np.concatenate([context, negs.reshape(-1)[keep]])
                labels = np.zeros(targets.size)
                labels[:m] = 1.0
            else:
                targets = context
                labels = np.ones(m)
            center_vec = vecs[doc_arr[i]]
            out = ctx[targets]
            scores = np.clip(out @ center_vec, -60.0, 60.0)
            gvec = (1.0 / (1.0 + np.exp(-scores)) - labels) * lr
            grad_center = gvec @ out
            np.add.at(ctx, targets, gvec[:, None] * center_vec[None, :])
            vecs[doc_arr[i]] -= grad_center


def shard_rng(config, epoch, shard):
    return np.random.default_rng(
        np.random.SeedSequence((config.seed, epoch, shard)))


def random_docs(seed, n_docs, vocab_size, lengths):
    rng = np.random.default_rng(seed)
    return [[f"w{j}" for j in rng.integers(0, vocab_size,
                                          size=rng.integers(*lengths))]
            for _ in range(n_docs)]


SKIPGRAM_CASES = {
    "negatives": (random_docs(1, 40, 30, (2, 15)),
                  EmbedConfig(dimension=6, window=3, negatives=4, epochs=1,
                              min_count=1, seed=1)),
    "no_negatives": (random_docs(2, 40, 30, (2, 15)),
                     EmbedConfig(dimension=6, window=3, negatives=0, epochs=1,
                                 min_count=1, seed=2)),
    "window_longer_than_documents": (
        random_docs(3, 30, 20, (1, 6)),
        EmbedConfig(dimension=5, window=12, negatives=2, epochs=1,
                    min_count=1, seed=3)),
    "only_one_token_documents": (
        [["a"], ["b"], ["a"]],
        EmbedConfig(dimension=3, window=2, negatives=2, epochs=2,
                    min_count=1, seed=10)),
    "one_token_documents": (
        [["a"], ["b", "a", "c"], ["c"], ["a"], ["b", "c"], ["b"]],
        EmbedConfig(dimension=4, window=2, negatives=3, epochs=2,
                    min_count=1, seed=4)),
    "repeated_tokens": (
        [["a", "a", "b", "a", "a"], ["b", "b", "a"], ["a"] * 7],
        EmbedConfig(dimension=4, window=3, negatives=5, epochs=2,
                    min_count=1, seed=5)),
    "min_count_filtering": (random_docs(6, 50, 80, (1, 12)),
                            EmbedConfig(dimension=6, window=2, negatives=3,
                                        epochs=1, min_count=3, seed=6)),
    "several_epochs": (random_docs(7, 20, 15, (2, 10)),
                       EmbedConfig(dimension=5, window=2, negatives=2,
                                   epochs=4, min_count=1, seed=7)),
    # three words, so most centres meet a word both as a context word
    # and as a negative, whose rows the update adds in turn
    "few_words_many_repeats": (random_docs(9, 30, 3, (5, 14)),
                               EmbedConfig(dimension=3, window=4, negatives=6,
                                           epochs=3, min_count=1, seed=9)),
    # about 1700 centres per epoch, so blocks end inside epochs and
    # documents
    "many_blocks": (random_docs(8, 120, 200, (2, 27)),
                    EmbedConfig(dimension=8, window=3, negatives=3, epochs=2,
                                min_count=2, seed=8)),
}


def assert_same_bytes(table, index, vecs):
    assert len(table) == len(index)
    for token, row in index.items():
        assert table[token].tobytes() == vecs[row].tobytes(), token


def both_passes(docs, config):
    """Every epoch of one shard of all of `docs` through `embed._train_shard`
    and through the per-centre reference, each from the start tables:
    (word table, context table) of each."""
    _, encoded, noise_cdf, vecs, ctx = reference_start(docs, config)
    bulk = vecs.copy(), ctx.copy()
    blocks = embed._blocks([np.array(doc) for doc in encoded])
    size = sum(len(doc) for doc in encoded)
    for epoch in range(config.epochs):
        reference_skipgram(encoded, vecs, ctx, shard_rng(config, epoch, 0),
                           noise_cdf, config, epoch * size,
                           size * config.epochs)
        embed._train_shard(*bulk, blocks, shard_rng(config, epoch, 0), config,
                           noise_cdf, epoch * size, size * config.epochs)
    return bulk, (vecs, ctx)


class TestSkipgramReference:
    @pytest.mark.parametrize("case", sorted(SKIPGRAM_CASES))
    def test_bytes_of_the_per_centre_loop(self, case):
        # from the same tables and generator, a shard's pass keeps the
        # bits of the per-centre loop, in both tables
        bulk, reference = both_passes(*SKIPGRAM_CASES[case])
        for table, expected in zip(bulk, reference):
            assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [1, 5, 37])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        # blocks smaller than a document, and boundaries inside epochs
        monkeypatch.setattr(embed, "BLOCK_CENTRES", block)
        bulk, reference = both_passes(*SKIPGRAM_CASES["several_epochs"])
        for table, expected in zip(bulk, reference):
            assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_cores", [1, 2])
    @pytest.mark.parametrize("case", ["several_epochs", "many_blocks",
                                      "repeated_tokens", "no_negatives"])
    def test_table_is_the_start_plus_both_shards_deltas(self, cores, n_cores,
                                                        case):
        # each epoch both shards' passes start from the same tables, with
        # generators seeded from (seed, epoch, shard) and learning rates
        # decaying over their own centres; the tables then take the
        # second's pass plus the first's delta, the start plus the sum of
        # both deltas, on one core and on two
        docs, config = SKIPGRAM_CASES[case]
        index, encoded, noise_cdf, vecs, ctx = reference_start(docs, config)
        ends = np.cumsum([len(doc) for doc in encoded])
        cut = int(np.argmin(np.abs(2 * ends - ends[-1]))) + 1
        shards = encoded[:cut], encoded[cut:]
        assert all(shards)
        sizes = [sum(len(doc) for doc in shard) for shard in shards]
        for epoch in range(config.epochs):
            start, first = (vecs.copy(), ctx.copy()), (vecs.copy(), ctx.copy())
            reference_skipgram(shards[0], *first, shard_rng(config, epoch, 0),
                               noise_cdf, config, epoch * sizes[0],
                               sizes[0] * config.epochs)
            reference_skipgram(shards[1], vecs, ctx,
                               shard_rng(config, epoch, 1), noise_cdf, config,
                               epoch * sizes[1], sizes[1] * config.epochs)
            vecs += first[0] - start[0]
            ctx += first[1] - start[1]
        cores(n_cores)
        assert_same_bytes(train_skipgram(docs, config), index, vecs)

    def test_repeated_targets_pair_with_their_first_occurrence(self):
        # the update adds every later occurrence of a word to the row of
        # its first; the cases above run it, and the large corpus spans
        # several blocks
        docs, _ = SKIPGRAM_CASES["many_blocks"]
        assert sum(len(doc) for doc in docs) > 3 * embed.BLOCK_CENTRES
        for case in SKIPGRAM_CASES:
            docs, config = SKIPGRAM_CASES[case]
            index = {t: i for i, t in enumerate(sorted({t for d in docs
                                                        for t in d}))}
            encoded = [np.array([index[t] for t in doc]) for doc in docs]
            _, bounds, _, targets, repeats = embed._block_targets(
                encoded, np.random.default_rng(0), config.window,
                config.negatives, np.linspace(0.1, 1.0, len(index)),
                len(index))
            for (a, b), pairs in zip(zip(bounds[:-1], bounds[1:]), repeats):
                # {first position: later positions, in the order applied}
                first, expected, got = {}, {}, {}
                for q, word in enumerate(targets[a:b].tolist()):
                    if word in first:
                        expected.setdefault(first[word], []).append(q)
                    first.setdefault(word, q)
                for p, q in pairs:
                    got.setdefault(p, []).append(q)
                assert got == expected
            if case == "repeated_tokens":
                assert any(repeats) and not all(repeats)


class TestShards:
    @pytest.mark.parametrize("lengths, cut", [
        # long user documents first, then short reviews: half the
        # documents would give the first shard 170 tokens of 240, half the
        # tokens gives each 120
        ([12] * 10 + [2] * 60, 10),
        ([1, 5], 1), ([5, 1], 1), ([3, 3, 4], 2), ([7], 1), ([1], 1),
        # on a tie the first shard is the shorter
        ([2, 2], 1), ([1, 2, 1], 1)])
    def test_cut_falls_at_half_the_tokens(self, lengths, cut):
        # whole documents, at the boundary nearest half the tokens
        docs = [np.zeros(n, dtype=np.int64) for n in lengths]
        first, second = embed._shards(docs)
        assert (len(first), len(second)) == (cut, len(lengths) - cut)

    @pytest.mark.parametrize("docs, min_count", [
        ([["x"]], 1),
        ([["a", "b", "a", "c", "b"]], 1),
        # the other documents hold only tokens below min_count
        ([["u"], ["a", "b", "a", "b"], ["v", "w"]], 2)],
        ids=["one-token", "one-document", "one-in-vocabulary-document"])
    def test_one_document_corpus_trains_one_shard_here(
            self, monkeypatch, cores, docs, min_count):
        # every in-vocabulary token in one document leaves the second
        # shard empty: even on two cores nothing forks, and the table is
        # the first shard's passes alone
        config = EmbedConfig(dimension=4, window=2, negatives=2, epochs=3,
                             min_count=min_count, seed=12)

        def no_fork(*args):
            raise AssertionError("forked")

        monkeypatch.setattr(embed.procs, "_fork", no_fork)
        cores(2)
        table = train_skipgram(docs, config)
        index, encoded, noise_cdf, vecs, ctx = reference_start(docs, config)
        assert len(encoded) == 1
        size = len(encoded[0])
        for epoch in range(config.epochs):
            reference_skipgram(encoded, vecs, ctx, shard_rng(config, epoch, 0),
                               noise_cdf, config, epoch * size,
                               size * config.epochs)
        assert_same_bytes(table, index, vecs)


class TestEmbeddingIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(3, {f"t{i}": rng.normal(size=3) for i in range(5)})
        path = tmp_path / "emb.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.dimension == 3
        assert len(loaded) == len(table)
        for token, vector in table.items():
            assert np.array_equal(loaded[token], vector)

    def test_dimension_mismatch_line_number(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1.0 2.0\nb 1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3"):
            load_embeddings(path)

    def test_header_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 1.0 2.0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert np.array_equal(table["a"], np.array([1.0, 2.0]))

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dimension_below_one_rejected(self, tmp_path, dim):
        # a "N 0" header with one bare token per line used to load as a
        # table of empty vectors
        path = tmp_path / "emb.txt"
        path.write_text(f"2 {dim}\na\nb\n", encoding="utf-8")
        with pytest.raises(FormatError, match="^line 1: header dimension"):
            load_embeddings(path)

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingTable(2, {"a": np.array([np.nan, 1.0])})

    def test_repeated_token_named(self, tmp_path):
        # the header count check used to report it as a missing token
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1.0 2.0\nb 0.0 1.0\na 3.0 4.0\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match="^line 4: token 'a' appears twice"):
            load_embeddings(path)


class TestDocVector:
    def test_mean_of_two(self, tiny_table):
        vec = doc_vector(TokenDocument("d", ("a", "b")), tiny_table)
        assert vec.shape == (2,)
        assert np.allclose(vec, [2.0, 3.0])

    def test_identical_tokens(self, tiny_table):
        vec = doc_vector(TokenDocument("d", ("a", "a")), tiny_table)
        assert np.allclose(vec, [1.0, 2.0])

    def test_oov_skipped_in_divisor(self, tiny_table):
        vec = doc_vector(TokenDocument("d", ("a", "missing", "b")), tiny_table)
        assert np.allclose(vec, [2.0, 3.0])

    def test_all_oov(self, tiny_table):
        with pytest.raises(AllOovError):
            doc_vector(TokenDocument("d", ("x", "y")), tiny_table)


@pytest.mark.parametrize("tokens", [(), ("x", "y"), ("x", "a"), ("b",)])
def test_in_vocabulary_is_what_embeds(tiny_table, tokens):
    # the predicate the pipeline drops documents by says exactly which
    # ones the embedding functions embed
    doc = TokenDocument("d", tokens)
    embeds = []
    for embed in (lambda: doc_vector(doc, tiny_table),
                  lambda: doc_matrix(doc, tiny_table, r=3)):
        try:
            embed()
            embeds.append(True)
        except AllOovError:
            embeds.append(False)
    assert embeds == [in_vocabulary(doc, tiny_table)] * 2


class TestDocMatrix:
    def test_trimmed_to_effective_length(self, tiny_table):
        m = doc_matrix(TokenDocument("d", ("a", "b")), tiny_table, r=4)
        assert m.shape == (2, 2)
        assert np.array_equal(m, [tiny_table["a"], tiny_table["b"]])

    def test_truncation(self, tiny_table):
        m = doc_matrix(TokenDocument("d", ("a", "b", "a", "b", "a", "b")),
                       tiny_table, r=4)
        assert len(m) == 4
        assert np.array_equal(m[3], tiny_table["b"])

    def test_single_token_layout(self, tiny_table):
        m = doc_matrix(TokenDocument("d", ("a",)), tiny_table, r=2)
        assert np.array_equal(m, np.array([[1.0, 2.0]]))

    def test_oov_columns_skipped(self, tiny_table):
        m = doc_matrix(TokenDocument("d", ("x", "a", "y", "b")), tiny_table, r=3)
        assert len(m) == 2
        assert np.array_equal(m[0], tiny_table["a"])

    def test_r_must_be_positive(self, tiny_table):
        with pytest.raises(ConfigError):
            doc_matrix(TokenDocument("d", ("a",)), tiny_table, r=0)

    def test_memory_bounded_by_length_not_r(self):
        # a short document at paper-scale r holds only its own word vectors
        d = 100
        table = EmbeddingTable(d, {t: np.full(d, i, dtype=float)
                                   for i, t in enumerate("abc")})
        m = doc_matrix(TokenDocument("d", ("a", "b", "c")), table, r=500)
        assert m.shape == (3, d) and m.dtype == np.float32
        assert m.flags.c_contiguous and m.nbytes == 3 * d * 4

    def test_vector_is_column_mean_of_unpadded_matrix(self, tiny_table):
        rng = np.random.default_rng(2)
        pool = ["a", "b", "c", "oov"]
        for i in range(20):
            tokens = tuple(pool[j] for j in rng.integers(0, 4, size=6))
            doc = TokenDocument(f"d{i}", tokens)
            try:
                vec = doc_vector(doc, tiny_table)
            except AllOovError:
                continue
            assert np.allclose(vec, doc_matrix(doc, tiny_table, r=10)
                               .mean(axis=0))


class TestTfidf:
    def test_everywhere_term_weight_zero(self):
        docs = [["shared", "one"], ["shared", "two"]]
        dense, vocab = tfidf_representation(docs)
        col = vocab.index("shared")
        assert np.all(dense[:, col] == 0.0)

    def test_single_document_zero_and_warns(self, caplog):
        with caplog.at_level("WARNING"):
            dense, _ = tfidf_representation([["a", "b"]])
        assert dense.shape == (1, 2) and not dense.any()
        assert any("all-zero" in m for m in caplog.messages)

    def test_idf_ln2(self):
        docs = [["rare", "both"], ["both"]]
        dense, vocab = tfidf_representation(docs)
        # single occurrence, idf ln 2, and the row L2-normalizes to 1
        assert dense[0, vocab.index("rare")] == pytest.approx(1.0)
        pre_norm = 1 * math.log(2)
        assert pre_norm == pytest.approx(0.6931, abs=1e-4)

    def test_rows_unit_norm_or_zero(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(12)]
        docs = [[vocab[j] for j in rng.integers(0, 12, size=rng.integers(1, 9))]
                for _ in range(15)]
        dense, _ = tfidf_representation(docs)
        norms = np.linalg.norm(dense, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))

    def test_restricted_vocabulary(self):
        docs = [["a", "b"], ["a", "c"]]
        dense, vocab = tfidf_representation(docs, vocabulary={"b", "c"})
        assert vocab == ("b", "c") and dense.shape == (2, 2)

    def test_matches_per_term_reference(self):
        # each weight is count * idf / norm, the norm summed in the order
        # the terms first occur in the document, so the matrix holds the
        # bytes of a term-by-term reference
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(9)]
        docs = [[vocab[j] for j in rng.integers(0, 9, size=rng.integers(1, 12))]
                for _ in range(20)]
        dense, columns = tfidf_representation(docs)
        n = len(docs)
        df = Counter(t for doc in docs for t in set(doc))
        expected = np.zeros((n, len(columns)))
        for i, doc in enumerate(docs):
            row = {t: count * math.log(n / df[t])
                   for t, count in Counter(doc).items()}
            norm = math.sqrt(sum(w * w for w in row.values()))
            for t, w in row.items():
                if norm > 0.0:
                    expected[i, columns.index(t)] = w / norm
        assert dense.tobytes() == expected.tobytes()


class TestGenderKeywords:
    def test_set_arithmetic(self):
        docs = [vdoc("m", ["a", "a", "b"], "male"),
                vdoc("f", ["b", "c", "c"], "female")]
        assert gender_keywords(docs, top_n=2) == {"a", "c"}

    def test_identical_corpora_empty(self):
        docs = [vdoc("m", ["a", "b"], "male"), vdoc("f", ["a", "b"], "female")]
        assert gender_keywords(docs, top_n=2) == set()

    def test_missing_gender_errors(self):
        docs = [vdoc("m", ["a"], "male")]
        with pytest.raises(DataError, match="female"):
            gender_keywords(docs, top_n=2)

    def test_result_bounded_by_two_top_n(self):
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(30)]
        docs = [vdoc(f"u{i}", [vocab[j] for j in rng.integers(0, 30, size=20)],
                     "male" if i % 2 else "female") for i in range(10)]
        for top_n in (3, 5, 10):
            assert len(gender_keywords(docs, top_n)) <= 2 * top_n
