"""Word embeddings and document representations.

Trains skip-gram vectors with negative sampling on the token streams of
both corpora, then turns each document into a (d,) averaged vector (mean
of its in-vocabulary word vectors) and a (length, d) sequence (its first r
in-vocabulary word vectors as rows, so length is at most r). The TF-IDF
baselines, dense (n, V) matrices whose row i belongs to document i, and
the gender-keyword vocabulary live here too.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import VirtualDocument, document_id
from .errors import AllOovError, ConfigError, DataError, FormatError

logger = logging.getLogger(__name__)

# skip-gram learning rate: decays linearly from INITIAL_LR over all centre
# tokens of the run, never below MIN_LR
INITIAL_LR = 0.025
MIN_LR = 1e-4


@dataclass
class EmbedConfig:
    dimension: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    min_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("embedding dimension must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.negatives < 0:
            raise ConfigError("negatives must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.min_count < 1:
            raise ConfigError("min_count must be >= 1")


class EmbeddingTable:
    """Token -> float64 vector lookup with a fixed dimension."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        self.dimension = dimension
        self._vectors = {}
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dimension,):
                raise FormatError(f"vector for {token!r} has shape {arr.shape}, "
                                  f"expected ({dimension},)")
            if not np.isfinite(arr).all():
                raise FormatError(f"vector for {token!r} has non-finite components")
            self._vectors[token] = arr

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, token: str) -> np.ndarray:
        return self._vectors[token]

    def items(self):
        return self._vectors.items()


def _token_stream(doc) -> Sequence[str]:
    return doc.tokens if hasattr(doc, "tokens") else doc


def train_skipgram(documents: Sequence, config: EmbedConfig | None = None) -> EmbeddingTable:
    """Skip-gram with negative sampling over pre-tokenized documents.

    Deterministic for a given seed and document order: the dynamic window
    width and the negative samples are the only random draws and they come
    from one seeded generator in a fixed iteration order.
    """
    config = config or EmbedConfig()
    token_docs = [list(_token_stream(d)) for d in documents]
    counts = Counter(t for doc in token_docs for t in doc)
    if not counts:
        raise DataError("cannot train embeddings on an empty corpus")
    vocab = [t for t, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
             if c >= config.min_count]
    if not vocab:
        raise DataError(f"empty embedding table: no token occurs at least "
                        f"min_count={config.min_count} times")
    index = {t: i for i, t in enumerate(vocab)}
    encoded = [[index[t] for t in doc if t in index] for doc in token_docs]
    encoded = [doc for doc in encoded if doc]

    rng = np.random.default_rng(config.seed)
    d = config.dimension
    vecs = (rng.random((len(vocab), d)) - 0.5) / d
    ctx = np.zeros((len(vocab), d))

    freqs = np.array([counts[t] for t in vocab], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(freqs / freqs.sum())
    noise_cdf[-1] = 1.0

    total_centers = max(1, sum(len(doc) for doc in encoded) * config.epochs)
    processed = 0
    k = config.negatives
    for _ in range(config.epochs):
        for doc in encoded:
            doc_arr = np.asarray(doc, dtype=np.int64)
            n = len(doc_arr)
            # one batch of random draws per document keeps the python loop lean
            widths = rng.integers(1, config.window + 1, size=n)
            lefts = np.maximum(0, np.arange(n) - widths)
            rights = np.minimum(n, np.arange(n) + 1 + widths)
            sizes = rights - lefts - 1
            if k > 0:
                negs_all = np.searchsorted(noise_cdf,
                                           rng.random((int(sizes.sum()), k)))
            offset = 0
            for i in range(n):
                lr = max(MIN_LR, INITIAL_LR * (1.0 - processed / total_centers))
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

    return EmbeddingTable(d, {t: vecs[i].copy() for t, i in index.items()})


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Text format: header '<vocab_size> <dimension>', then one token and
    its components per line. repr() keeps the decimal text exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for token, vec in table.items():
            if any(ch.isspace() for ch in token):
                raise FormatError(f"token {token!r} contains whitespace and "
                                  "cannot be saved in the text format")
            fh.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def load_embeddings(path) -> EmbeddingTable:
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("header must be '<vocab_size> <dimension>'", 1)
        try:
            size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError("header must hold two integers", 1)
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise FormatError(f"expected {dim} components for token "
                                  f"{parts[0]!r}, found {len(parts) - 1}", number)
            try:
                vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise FormatError(f"non-numeric component for token {parts[0]!r}",
                                  number)
    if len(vectors) != size:
        raise FormatError(f"header declares {size} tokens, file holds {len(vectors)}")
    return EmbeddingTable(dim, vectors)


def _in_vocab_vectors(doc, table: EmbeddingTable) -> list[np.ndarray]:
    return [table[t] for t in _token_stream(doc) if t in table]


def doc_vector(doc, table: EmbeddingTable) -> np.ndarray:
    """Mean of the document's in-vocabulary word vectors, a (d,) array.

    Out-of-vocabulary tokens are skipped and do not count toward the
    divisor.
    """
    vectors = _in_vocab_vectors(doc, table)
    if not vectors:
        raise AllOovError(f"document {document_id(doc)!r} has no in-vocabulary token")
    return np.mean(vectors, axis=0)


def doc_matrix(doc, table: EmbeddingTable, r: int) -> np.ndarray:
    """The document's first min(#in-vocab tokens, r) word vectors as the
    rows of a (length, d) array; its length is the effective length the
    LSTM reads."""
    if r < 1:
        raise ConfigError(f"r must be >= 1, got {r}")
    vectors = _in_vocab_vectors(doc, table)
    if not vectors:
        raise AllOovError(f"document {document_id(doc)!r} has no in-vocabulary token")
    return np.stack(vectors[:r])


def tfidf_representation(documents: Sequence,
                         vocabulary: Iterable[str] | None = None
                         ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Raw term frequency times idf = ln(N / df), L2-normalized per row.

    Returns the dense (len(documents), V) matrix, row i belonging to
    documents[i], and the V vocabulary terms its columns follow (sorted).
    A row whose every term has idf 0 (for instance a single-document
    corpus) stays the zero vector and is flagged with a warning. Passing
    `vocabulary` restricts the columns to those terms.
    """
    token_docs = [list(_token_stream(d)) for d in documents]
    if not token_docs:
        raise DataError("tfidf needs at least one document")
    if vocabulary is None:
        vocab = sorted({t for doc in token_docs for t in doc})
    else:
        vocab = sorted(set(vocabulary))
    index = {t: j for j, t in enumerate(vocab)}
    df = Counter()
    for doc in token_docs:
        df.update({t for t in doc if t in index})
    n = len(token_docs)
    idf = {t: math.log(n / df[t]) for t in df}
    out = np.zeros((n, len(vocab)))
    zero_rows = 0
    for row, doc in enumerate(token_docs):
        tf = Counter(t for t in doc if t in index)
        weights = [count * idf[t] for t, count in tf.items()]
        norm = math.sqrt(sum(w * w for w in weights))
        if norm > 0.0:
            for t, w in zip(tf, weights):
                out[row, index[t]] = w / norm
        else:
            zero_rows += 1
    if zero_rows:
        logger.warning("%d of %d tfidf rows are all-zero (every term has "
                       "idf 0 or is out of vocabulary)", zero_rows, n)
    return out, tuple(vocab)


def gender_keywords(docs: Sequence[VirtualDocument], top_n: int) -> set[str]:
    """Tokens frequent for one gender but not the other.

    Takes the top_n most frequent tokens of each gender (by total count)
    and drops every token present in both top lists.
    """
    if top_n < 1:
        raise ConfigError("top_n must be >= 1")
    counts = {g: Counter() for g in ("male", "female")}
    for doc in docs:
        counts[doc.gender].update(doc.tokens)
    missing = [g for g, c in counts.items() if not c]
    if missing:
        raise DataError(f"no documents for gender(s): {', '.join(missing)}")
    tops = {}
    for g, counter in counts.items():
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        tops[g] = {t for t, _ in ranked[:top_n]}
    return (tops["male"] | tops["female"]) - (tops["male"] & tops["female"])
