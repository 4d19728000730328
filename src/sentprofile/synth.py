"""Synthetic desk-scale dataset generator.

Polarity is carried by ordered marker pairs: an opener token directly
followed by a closer token reads positive, the reverse order negative.
Token counts alone are therefore polarity-blind (both orders use the same
tokens), so averaged word vectors can see how often a user uses markers
but not which way they lean; a sequence model can. That mirrors the reason
the pipeline feeds sequences to an LSTM instead of averaging everything.

The source corpus is reviews whose pairs all share the review's polarity.
Target users lean positive or negative by gender, and their marker-token
frequency correlates with gender at the configured point-biserial level.
Posts also carry stopwords, links and punctuation tokens so the cleaning
rules have something to do; the matching stopword list is part of the
generated dataset.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import SourceReview, UserRecord
from .errors import ConfigError

OPENER_MARKERS = tuple(f"marka{i}" for i in range(2))
CLOSER_MARKERS = tuple(f"markb{i}" for i in range(2))
STOPWORDS = tuple(f"filler{i}" for i in range(8))
PUNCT_TOKENS = ("!!", "...", "??", "~~")


@dataclass
class SynthConfig:
    n_users: int = 1000
    n_reviews: int = 2000
    seed: int = 0
    marker_correlation: float = 0.6
    n_topics: int = 12
    tokens_per_topic: int = 30
    posts_per_user: tuple[int, int] = (3, 7)
    tokens_per_post: tuple[int, int] = (8, 16)
    review_tokens: tuple[int, int] = (8, 30)
    review_marker_rate: float = 0.25
    user_marker_rate: float = 0.14
    user_marker_rate_sd: float = 0.03
    positive_share_shift: float = 0.4
    positive_share_sd: float = 0.06
    stopword_rate: float = 0.05
    link_rate: float = 0.02
    punct_rate: float = 0.02
    n_manual: int = 50

    def validate(self) -> None:
        if self.n_users < 2:
            raise ConfigError(f"users must be >= 2, got {self.n_users}")
        if self.n_reviews < 0:
            raise ConfigError(f"reviews must be >= 0, got {self.n_reviews}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not -1.0 < self.marker_correlation < 1.0:
            raise ConfigError(f"marker correlation must be in (-1, 1), got "
                              f"{self.marker_correlation}")

    def topic_vocab(self) -> list[list[str]]:
        return [[f"topic{t:02d}tok{i:03d}" for i in range(self.tokens_per_topic)]
                for t in range(self.n_topics)]


@dataclass
class SynthDataset:
    users: list[UserRecord]
    reviews: list[SourceReview]
    manual: list[tuple[UserRecord, str]]
    stopwords: tuple[str, ...] = STOPWORDS
    user_marker_freq: dict[str, float] = field(default_factory=dict)


def _pair_start_prob(marker_fraction: float) -> float:
    """Probability of starting a two-token marker pair at an emission slot
    so that markers make up `marker_fraction` of the emitted tokens.

    Every pair is followed by one forced neutral separator, so a pair event
    costs three tokens, two of which are markers."""
    return marker_fraction / (2.0 * (1.0 - marker_fraction))


def _marker_rate_delta(config: SynthConfig) -> float:
    """Mean gender gap in marker rate hitting the target point-biserial
    correlation for balanced classes.

    Equal group sizes need a standardized gap delta = 2 rho / sqrt(1 -
    rho^2); the within-group deviation combines the per-user rate jitter
    with the pair-sampling noise of a typical document length.
    """
    rho = config.marker_correlation
    mean_tokens = (sum(config.posts_per_user) / 2) * (sum(config.tokens_per_post) / 2)
    rate = config.user_marker_rate
    # a pair toggles two tokens at once and document lengths vary, which
    # inflates the sampling variance beyond plain binomial; the 2.0 factor
    # is calibrated against realized correlations
    within_var = config.user_marker_rate_sd ** 2 + 2.0 * rate * (1 - rate) / mean_tokens
    return 2 * rho / math.sqrt(1 - rho ** 2) * math.sqrt(within_var)


def _emit_pair(positive: bool, rng: np.random.Generator) -> tuple[str, str]:
    a = OPENER_MARKERS[rng.integers(0, len(OPENER_MARKERS))]
    b = CLOSER_MARKERS[rng.integers(0, len(CLOSER_MARKERS))]
    return (a, b) if positive else (b, a)


def generate_reviews(config: SynthConfig, rng: np.random.Generator) -> list[SourceReview]:
    """Reviews whose marker pairs all read in the review's polarity.

    A neutral token always separates consecutive pairs, so no spurious
    reversed bigram can appear between adjacent pairs."""
    topics = config.topic_vocab()
    flat_vocab = [t for topic in topics for t in topic]
    q = _pair_start_prob(config.review_marker_rate)
    polarities = np.array(["positive", "negative"])[
        rng.permutation(np.arange(config.n_reviews) % 2)]
    reviews = []
    for i in range(config.n_reviews):
        polarity = str(polarities[i])
        length = int(rng.integers(config.review_tokens[0],
                                  config.review_tokens[1] + 1))
        tokens: list[str] = []
        pairs = 0
        just_paired = False
        while len(tokens) < length:
            if not just_paired and rng.random() < q:
                tokens.extend(_emit_pair(polarity == "positive", rng))
                pairs += 1
                just_paired = True
            else:
                tokens.append(flat_vocab[rng.integers(0, len(flat_vocab))])
                just_paired = False
        if pairs == 0:
            pos = int(rng.integers(0, max(1, len(tokens) - 1)))
            tokens[pos:pos + 2] = _emit_pair(polarity == "positive", rng)
        reviews.append(SourceReview(review_id=f"review-{i:05d}",
                                    tokens=tuple(tokens), polarity=polarity))
    return reviews


def generate_users(config: SynthConfig, rng: np.random.Generator):
    """Users with gender-linked marker frequency and marker orientation.

    Returns (users, marker_freq) where marker_freq maps user_id to the
    realized fraction of marker tokens among the user's real (non-noise)
    tokens.
    """
    topics = config.topic_vocab()
    delta = _marker_rate_delta(config)
    genders = np.array(["male", "female"])[
        rng.permutation(np.arange(config.n_users) % 2)]
    users = []
    marker_freq: dict[str, float] = {}
    for i in range(config.n_users):
        gender = str(genders[i])
        sign = 0.5 if gender == "female" else -0.5
        rate = float(np.clip(config.user_marker_rate + sign * delta
                             + rng.normal(0.0, config.user_marker_rate_sd),
                             0.01, 0.7))
        q = _pair_start_prob(rate)
        positive_share = float(np.clip(0.5 + 2 * sign * config.positive_share_shift
                                       + rng.normal(0.0, config.positive_share_sd),
                                       0.02, 0.98))
        topic_weights = rng.dirichlet(np.full(config.n_topics, 0.4))
        n_posts = int(rng.integers(config.posts_per_user[0],
                                   config.posts_per_user[1] + 1))
        posts = []
        marker_count = 0
        token_count = 0
        for _ in range(n_posts):
            length = int(rng.integers(config.tokens_per_post[0],
                                      config.tokens_per_post[1] + 1))
            tokens: list[str] = []
            # posts open with a separator so concatenating cleaned posts
            # never glues two pairs together; removable noise does not
            # count as a separator because cleaning deletes it
            just_paired = True
            while len(tokens) < length:
                u = rng.random()
                if u < config.stopword_rate:
                    tokens.append(STOPWORDS[rng.integers(0, len(STOPWORDS))])
                    continue
                if u < config.stopword_rate + config.link_rate:
                    tokens.append(f"http://s.example/{rng.integers(0, 999)}")
                    continue
                if u < config.stopword_rate + config.link_rate + config.punct_rate:
                    tokens.append(PUNCT_TOKENS[rng.integers(0, len(PUNCT_TOKENS))])
                    continue
                if not just_paired and rng.random() < q:
                    tokens.extend(_emit_pair(rng.random() < positive_share, rng))
                    marker_count += 2
                    token_count += 2
                    just_paired = True
                else:
                    topic = rng.choice(config.n_topics, p=topic_weights)
                    tokens.append(topics[topic][rng.integers(0, config.tokens_per_topic)])
                    token_count += 1
                    just_paired = False
            posts.append(tuple(tokens))
        user_id = f"user-{i:05d}"
        users.append(UserRecord(user_id=user_id, gender=gender,
                                posts=tuple(posts)))
        marker_freq[user_id] = marker_count / max(1, token_count)
    return users, marker_freq


def _manual_polarity(user: UserRecord) -> str:
    """Majority orientation of a user's marker pairs."""
    pos = neg = 0
    for post in user.posts:
        for a, b in zip(post, post[1:]):
            if a in OPENER_MARKERS and b in CLOSER_MARKERS:
                pos += 1
            elif a in CLOSER_MARKERS and b in OPENER_MARKERS:
                neg += 1
    return "positive" if pos >= neg else "negative"


def generate_dataset(config: SynthConfig | None = None) -> SynthDataset:
    config = config or SynthConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    reviews = generate_reviews(config, rng)
    users, marker_freq = generate_users(config, rng)
    manual = [(user, _manual_polarity(user)) for user in users[:config.n_manual]]
    return SynthDataset(users=users, reviews=reviews, manual=manual,
                        user_marker_freq=marker_freq)


def marker_frequency_correlation(dataset: SynthDataset) -> float:
    """Point-biserial correlation between gender and marker frequency."""
    g = np.array([1.0 if u.gender == "female" else 0.0 for u in dataset.users])
    f = np.array([dataset.user_marker_freq[u.user_id] for u in dataset.users])
    return float(np.corrcoef(g, f)[0, 1])


def write_dataset(dataset: SynthDataset, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"users": out_dir / "users.jsonl",
             "reviews": out_dir / "reviews.jsonl",
             "stopwords": out_dir / "stopwords.txt",
             "manual": out_dir / "manual.jsonl"}
    with open(paths["users"], "w", encoding="utf-8") as fh:
        for user in dataset.users:
            fh.write(json.dumps({"user_id": user.user_id, "gender": user.gender,
                                 "posts": [list(p) for p in user.posts]}) + "\n")
    with open(paths["reviews"], "w", encoding="utf-8") as fh:
        for review in dataset.reviews:
            fh.write(json.dumps({"review_id": review.review_id,
                                 "polarity": review.polarity,
                                 "tokens": list(review.tokens)}) + "\n")
    with open(paths["stopwords"], "w", encoding="utf-8") as fh:
        fh.write("# generated stopword list\n")
        for word in dataset.stopwords:
            fh.write(word + "\n")
    with open(paths["manual"], "w", encoding="utf-8") as fh:
        for user, polarity in dataset.manual:
            fh.write(json.dumps({"user_id": user.user_id, "gender": user.gender,
                                 "polarity": polarity,
                                 "posts": [list(p) for p in user.posts]}) + "\n")
    return paths
