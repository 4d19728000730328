"""Word embeddings and document representations.

Trains skip-gram vectors with negative sampling on the token streams of
both corpora, in two fixed shards of documents whose deltas are summed
after every epoch (side by side when there is a second core, see
`train_skipgram`). Then turns each document into a (d,) averaged vector
(mean of its in-vocabulary word vectors) and a (length, d) sequence (its
first r in-vocabulary word vectors as rows, so length is at most r).
The TF-IDF baselines, dense (n, V) matrices whose row i belongs to
document i, and the gender-keyword vocabulary live here too.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from . import procs
from .corpus import VirtualDocument, document_id
from .errors import (
    AllOovError,
    ConfigError,
    DataError,
    FormatError,
)

logger = logging.getLogger(__name__)

# skip-gram learning rate: decays linearly from INITIAL_LR over all centre
# tokens of a shard's passes, never below MIN_LR
INITIAL_LR = 0.025
MIN_LR = 1e-4
# centres whose targets `train_skipgram` builds in one go; bounds the
# memory of the bulk-built arrays (a longer document is a block of its own)
BLOCK_CENTRES = 512


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


def _block_targets(docs: list[np.ndarray], rng: np.random.Generator,
                   window: int, k: int, noise_cdf: np.ndarray, vocab_size: int):
    """Everything one epoch's pass over the consecutive documents `docs`
    needs that does not read the tables, for the block's C centres in
    order: (centre tokens, target segment bounds (C + 1,), number of
    positive targets (C,), the targets of all segments, and per centre the
    (first, later) position pairs of the words that repeat among its
    targets: every later occurrence paired with the first one, within a
    word in position order).

    Per document it draws what building each centre's targets in turn
    draws, in the same order and sizes: the dynamic window widths, then
    the uniform draws of the negatives of every context row. Centre i's
    segment holds its context words (positives, in document order), then
    the negatives of each context row that differ from that row's word,
    row by row."""
    widths, draws = [], []
    for doc in docs:
        n = len(doc)
        w = rng.integers(1, window + 1, size=n)
        widths.append(w)
        if k > 0:
            i = np.arange(n)
            rows = int(np.minimum(i, w).sum() + np.minimum(n - 1 - i, w).sum())
            draws.append(rng.random((rows, k)))
    tokens = np.concatenate(docs)
    lens = np.array([len(doc) for doc in docs])
    pos = np.arange(len(tokens)) - np.repeat(np.cumsum(lens) - lens, lens)
    widths = np.concatenate(widths)
    left = np.minimum(pos, widths)
    n_pos = left + np.minimum(np.repeat(lens, lens) - 1 - pos, widths)
    # one row per (centre, context word): centre g reads g - left .. g - 1,
    # then g + 1 .. g + right
    first_row = np.cumsum(n_pos) - n_pos
    owner = np.repeat(np.arange(len(tokens)), n_pos)
    rank = np.arange(len(owner)) - first_row[owner]
    context = tokens[owner - left[owner] + rank + (rank >= left[owner])]
    if k > 0:
        negs = np.searchsorted(noise_cdf, np.concatenate(draws))
        keep = negs != context[:, None]
        neg_owner = owner[np.nonzero(keep)[0]]
        n_neg = np.bincount(neg_owner, minlength=len(tokens))
        # a context row moves up by the negatives of the centres before
        # its own; the q-th kept negative lands after its centre's
        # context rows and the q negatives before it
        targets = np.empty(len(owner) + len(neg_owner), dtype=np.int64)
        targets[np.arange(len(owner)) + (np.cumsum(n_neg) - n_neg)[owner]] = context
        targets[(first_row + n_pos)[neg_owner] + np.arange(len(neg_owner))] = negs[keep]
        sizes = n_pos + n_neg
    else:
        targets, sizes = context, n_pos
    bounds = np.zeros(len(tokens) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    # sorted by (segment, word), stably, each word's occurrences stay in
    # position order; every one after the first pairs with the first
    segment = np.repeat(np.arange(len(tokens)), sizes)
    key = segment * vocab_size + targets
    order = np.argsort(key, kind="stable")
    key = key[order]
    later = np.zeros(len(key), dtype=bool)
    later[1:] = key[1:] == key[:-1]
    first = order[np.maximum.accumulate(np.where(later, 0, np.arange(len(key))))]
    owner = segment[order[later]]
    repeats = [[] for _ in range(len(tokens))]
    for c, p, q in zip(owner.tolist(), (first[later] - bounds[owner]).tolist(),
                       (order[later] - bounds[owner]).tolist()):
        repeats[c].append((p, q))
    return tokens, bounds, n_pos, targets, repeats


def _blocks(encoded: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Consecutive documents grouped into blocks of at most BLOCK_CENTRES
    centres; a longer document forms a block of its own."""
    blocks, block, size = [], [], 0
    for doc in encoded:
        if block and size + len(doc) > BLOCK_CENTRES:
            blocks.append(block)
            block, size = [], 0
        block.append(doc)
        size += len(doc)
    if block:
        blocks.append(block)
    return blocks


def _shards(docs: list[np.ndarray]) -> tuple[list, list]:
    """The documents `docs`, none empty, cut into two runs of whole
    documents at the boundary nearest half their tokens (the first such
    boundary on a tie). The second is empty only when one document holds
    every token."""
    ends = np.cumsum([len(doc) for doc in docs])
    cut = int(np.argmin(np.abs(2 * ends - ends[-1]))) + 1
    return docs[:cut], docs[cut:]


def _train_shard(vecs: np.ndarray, ctx: np.ndarray, blocks: list,
                 rng: np.random.Generator, config: EmbedConfig,
                 noise_cdf: np.ndarray, processed: int, total: int) -> None:
    """One epoch of plain sequential SGD over the consecutive documents of
    `blocks` (see `_blocks`), in place on the word and context tables:
    each centre token, in document order, updates its own vector and its
    targets' context vectors before the next centre reads them. The
    learning rate decays linearly from INITIAL_LR over `total` centres,
    never below MIN_LR, this pass's first centre being number `processed`.

    A centre's targets are its context words within a dynamic window
    (positives) and `config.negatives` noise words drawn per context word
    from the noise distribution `noise_cdf` (a draw equal to that context
    word is dropped); `rng` makes every draw. They are built in bulk per
    block (see `_block_targets`); the per-centre loop keeps only the
    arithmetic that reads the tables. It adds the update rows to the
    context vectors one occurrence at a time, in position order, as
    `np.add.at` does, so the tables have the bits of a loop that builds
    each centre's targets in turn (tests keep one)."""
    d, k = vecs.shape[1], config.negatives
    # per-centre buffers: a centre has at most min(2 * window, n - 1)
    # context words and k negatives for each; views[n] are the first n rows
    longest = max(1, min(2 * config.window, max(
        len(doc) for block in blocks for doc in block) - 1) * (1 + k))
    rows_buf, outer_buf = np.empty((longest, d)), np.empty((longest, d))
    score_buf, grad_center = np.empty(longest), np.empty(d)
    views = [(rows_buf[:n], score_buf[:n], outer_buf[:n])
             for n in range(longest + 1)]
    for block in blocks:
        centres, bounds, n_pos, targets, repeats = _block_targets(
            block, rng, config.window, k, noise_cdf, len(vecs))
        # the linear decay over the shard's centres, one rate per centre
        lrs = np.maximum(MIN_LR, INITIAL_LR * (
            1.0 - np.arange(processed, processed + len(centres)) / total))
        processed += len(centres)
        for c, a, b, m, lr, repeat in zip(
                centres.tolist(), bounds[:-1].tolist(), bounds[1:].tolist(),
                n_pos.tolist(), lrs.tolist(), repeats):
            if a == b:
                continue
            t = targets[a:b]
            out, g, u = views[b - a]
            ctx.take(t, axis=0, out=out, mode="clip")
            center_vec = vecs[c]
            np.matmul(out, center_vec, out=g)
            # 1 / (1 + exp(-s)) rounds to 1.0 for every s > 36.7, so the
            # upper clip at 60 would change no bit
            np.maximum(g, -60.0, out=g)
            np.negative(g, out=g)
            np.exp(g, out=g)
            np.add(g, 1.0, out=g)
            np.divide(1.0, g, out=g)
            # label 1 for the positives, 0 (an exact no-op) for the rest
            g[:m] -= 1.0
            g *= lr
            np.matmul(g, out, out=grad_center)
            np.multiply(g[:, None], center_vec, out=u)
            # the additions np.add.at(ctx, t, u) makes, in its order:
            # each word's row takes its occurrences' rows in turn
            out += u
            for p, q in repeat:
                out[p] += u[q]
            for p, q in repeat:
                out[q] = out[p]
            ctx[t] = out
            center_vec -= grad_center


def _delta(train, vecs: np.ndarray, ctx: np.ndarray) -> tuple:
    """What train(word table, context table), a pass in place, adds to
    copies of the tables (vecs, ctx), which it leaves as they are."""
    trained = vecs.copy(), ctx.copy()
    train(*trained)
    return trained[0] - vecs, trained[1] - ctx


def train_skipgram(documents: Sequence, config: EmbedConfig | None = None) -> EmbeddingTable:
    """Skip-gram with negative sampling over pre-tokenized documents.

    The documents are cut into two shards of whole documents at half
    their in-vocabulary tokens (see `_shards`). In each epoch both shards
    train from the same tables, each by plain sequential SGD over its own
    documents in order (see `_train_shard`), with its own generator,
    seeded from (seed, epoch, shard), and its own learning rate, decaying
    over its centres times the epochs. The tables then take the sum of
    the two shards' deltas: the second shard trains on them in place and
    the first shard's delta (its tables minus the start) is added. This
    is iterative parameter mixing (McDonald et al., NAACL 2010) with the
    deltas summed, not averaged, as the reference implementation's
    asynchronous updates add up.

    Each epoch's two shards are two parts of one `procs.map_parts`
    schedule: with more than one core in the affinity mask the first
    shard trains in a forked child while this process trains the second;
    otherwise one after the other. The bytes are the same either way:
    the shard count is fixed, not the core count, and every random draw
    comes from a shard's own generator in a fixed iteration order. When
    one document holds every in-vocabulary token, the second shard is
    empty and the first trains here alone, in place. A shard that fails,
    or whose child exits without a result, raises a PipelineError named
    after it (`skip-gram shard 2: ...`) on every core count; if both
    fail, the first shard's error is raised.
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
    encoded = [np.array([index[t] for t in doc if t in index], dtype=np.int64)
               for doc in token_docs]

    rng = np.random.default_rng(config.seed)
    d = config.dimension
    vecs = (rng.random((len(vocab), d)) - 0.5) / d
    ctx = np.zeros((len(vocab), d))

    freqs = np.array([counts[t] for t in vocab], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(freqs / freqs.sum())
    noise_cdf[-1] = 1.0

    shards = _shards([doc for doc in encoded if len(doc)])
    sizes = [sum(len(doc) for doc in shard) for shard in shards]
    blocks = [_blocks(shard) for shard in shards]

    def shard_pass(number, epoch):
        return partial(
            _train_shard, blocks=blocks[number], config=config,
            rng=np.random.default_rng(
                np.random.SeedSequence((config.seed, epoch, number))),
            noise_cdf=noise_cdf, processed=epoch * sizes[number],
            total=sizes[number] * config.epochs)

    def shard(epoch, folds):
        """The call that trains shard folds[0] in `epoch`: the first gives
        its delta, the second trains the tables in place and gives none."""
        (number,) = folds
        train = shard_pass(number, epoch)
        if number == 0:
            return lambda: [_delta(train, vecs, ctx)]
        # _train_shard returns None
        return lambda: train(vecs, ctx) or []

    for epoch in range(config.epochs):
        if not sizes[1]:
            shard_pass(0, epoch)(vecs, ctx)
            continue
        (delta,) = procs.map_parts([
            procs.Part([number], partial(shard, epoch), unit="skip-gram shard")
            for number in (0, 1)])
        vecs += delta[0]
        ctx += delta[1]

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
        if dim < 1:
            raise FormatError(f"header dimension must be >= 1, got {dim}", 1)
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise FormatError(f"expected {dim} components for token "
                                  f"{parts[0]!r}, found {len(parts) - 1}", number)
            if parts[0] in vectors:
                raise FormatError(f"token {parts[0]!r} appears twice", number)
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


def in_vocabulary(doc, table: EmbeddingTable) -> bool:
    """Whether the document has a token in `table`: exactly when
    `doc_vector` and `doc_matrix` embed it rather than raise
    AllOovError."""
    return any(t in table for t in _token_stream(doc))


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
    rows of a (length, d) float32 array; its length is the effective
    length the LSTM reads. The LSTM computes in its input's dtype, so
    every sequence made here runs it in float32."""
    if r < 1:
        raise ConfigError(f"r must be >= 1, got {r}")
    vectors = _in_vocab_vectors(doc, table)
    if not vectors:
        raise AllOovError(f"document {document_id(doc)!r} has no in-vocabulary token")
    return np.array(vectors[:r], dtype=np.float32)


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
