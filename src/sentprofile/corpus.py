"""Ingestion and cleaning of the two labeled corpora.

Target domain: micro-blog users, one JSONL record per user with gender and
pre-segmented posts. Source domain: short reviews with a positive/negative
polarity label. Cleaning removes stopwords, hyperlinks and tokens without
any letter or ideograph; a user's cleaned posts concatenate into a single
virtual document.
"""

import json
import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateKeyError,
    EmptyDocumentError,
    ParseError,
    SchemaError,
)

logger = logging.getLogger(__name__)

GENDERS = ("male", "female")
POLARITIES = ("positive", "negative")


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    gender: str
    posts: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SourceReview:
    review_id: str
    tokens: tuple[str, ...]
    polarity: str


@dataclass(frozen=True)
class VirtualDocument:
    """All of one user's cleaned posts flattened into a single token stream."""

    user_id: str
    gender: str
    tokens: tuple[str, ...]


class TokenDocument(NamedTuple):
    """Ad-hoc document wrapper for APIs that take anything with tokens."""

    doc_id: str
    tokens: tuple[str, ...]


def document_id(doc) -> str:
    for attr in ("user_id", "review_id", "doc_id"):
        value = getattr(doc, attr, None)
        if value is not None:
            return value
    raise AttributeError(f"{type(doc).__name__} carries no document id")


def _parse_line(line: str, number: int):
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", number)
    if not isinstance(record, dict):
        raise ParseError("record is not a JSON object", number)
    return record


def jsonl_records(path):
    """(line number, record) of each non-blank line of a JSONL file, every
    line parsed by `_parse_line`, so a line that is not a JSON object is a
    ParseError naming its number."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                yield number, _parse_line(line, number)


def _require(record: dict, field: str, number: int):
    if field not in record:
        raise SchemaError(f"missing field {field!r}", number)
    return record[field]


def _check_token_list(value, field: str, number: int) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise SchemaError(f"field {field!r} must be a list of strings", number)
    return tuple(value)


def _user_record(record: dict, number: int, seen: set[str],
                 default_gender: str | None = None) -> UserRecord:
    """The checks of both user loaders; adds the user_id to `seen`. Without
    `default_gender` the gender field is required."""
    user_id = _require(record, "user_id", number)
    if not isinstance(user_id, str) or not user_id:
        raise SchemaError("user_id must be a non-empty string", number)
    gender = (_require(record, "gender", number) if default_gender is None
              else record.get("gender", default_gender))
    if gender not in GENDERS:
        raise SchemaError(f"unknown gender {gender!r} for user "
                          f"{user_id!r} (expected one of {GENDERS})", number)
    raw_posts = _require(record, "posts", number)
    if not isinstance(raw_posts, list):
        raise SchemaError("posts must be a list of token lists", number)
    posts = tuple(p for p in (_check_token_list(p, "posts", number)
                              for p in raw_posts) if p)
    if not posts:
        raise SchemaError(f"user {user_id!r} has no non-empty post", number)
    if user_id in seen:
        raise DuplicateKeyError(f"duplicate user_id {user_id!r} "
                                f"(line {number})")
    seen.add(user_id)
    return UserRecord(user_id=user_id, gender=gender, posts=posts)


def load_user_records(path) -> list[UserRecord]:
    """Load target-domain users from JSONL.

    Empty posts are dropped at ingestion; a record left without any
    non-empty post is rejected. Duplicate user_id is an error.
    """
    seen: set[str] = set()
    return [_user_record(record, number, seen)
            for number, record in jsonl_records(path)]


def load_source_reviews(path) -> list[SourceReview]:
    """Load source-domain reviews from JSONL. An empty file yields an empty
    list with a warning."""
    reviews: list[SourceReview] = []
    seen: set[str] = set()
    for number, record in jsonl_records(path):
        review_id = _require(record, "review_id", number)
        if not isinstance(review_id, str) or not review_id:
            raise SchemaError("review_id must be a non-empty string", number)
        polarity = _require(record, "polarity", number)
        if polarity not in POLARITIES:
            raise SchemaError(f"unknown polarity {polarity!r} for review "
                              f"{review_id!r} (expected one of {POLARITIES})",
                              number)
        tokens = _check_token_list(_require(record, "tokens", number),
                                   "tokens", number)
        if not tokens:
            raise SchemaError(f"review {review_id!r} has no tokens", number)
        if review_id in seen:
            raise DuplicateKeyError(f"duplicate review_id {review_id!r} "
                                    f"(line {number})")
        seen.add(review_id)
        reviews.append(SourceReview(review_id=review_id, tokens=tokens,
                                    polarity=polarity))
    if not reviews:
        logger.warning("no reviews loaded from %s", path)
    return reviews


def load_manual_records(path) -> list[tuple[UserRecord, str]]:
    """Load manually polarity-labeled target users: the user schema, with
    an optional gender (default male), plus a 'polarity' field."""
    out: list[tuple[UserRecord, str]] = []
    seen: set[str] = set()
    for number, record in jsonl_records(path):
        polarity = _require(record, "polarity", number)
        if polarity not in POLARITIES:
            raise SchemaError(f"unknown polarity {polarity!r}", number)
        out.append((_user_record(record, number, seen, default_gender="male"),
                    polarity))
    return out


def load_stopwords(path) -> frozenset[str]:
    """One token per line, UTF-8; lines starting with '#' are comments."""
    words: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token = line.strip()
            if token and not token.startswith("#"):
                words.add(token)
    return frozenset(words)


def _has_word_char(token: str) -> bool:
    return any(ch.isalpha() for ch in token)


def clean_tokens(tokens: Sequence[str],
                 stopwords: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Drop stopwords, hyperlinks and tokens without letters/ideographs.

    The output is always a subsequence of the input, which makes cleaning
    idempotent.
    """
    kept = []
    for token in tokens:
        if token in stopwords:
            continue
        if token.startswith("http"):
            continue
        if not _has_word_char(token):
            continue
        kept.append(token)
    return kept


def build_virtual_document(record: UserRecord,
                           stopwords: frozenset[str] | set[str] = frozenset()
                           ) -> VirtualDocument:
    """Concatenate the user's cleaned posts, in post order."""
    tokens: list[str] = []
    for post in record.posts:
        tokens.extend(clean_tokens(post, stopwords))
    if not tokens:
        raise EmptyDocumentError(record.user_id)
    return VirtualDocument(user_id=record.user_id, gender=record.gender,
                           tokens=tuple(tokens))


def build_virtual_documents(records: Iterable[UserRecord],
                            stopwords: frozenset[str] | set[str] = frozenset()
                            ) -> list[VirtualDocument]:
    """Build virtual documents for many users; users emptied by cleaning
    are logged and skipped."""
    docs = []
    for record in records:
        try:
            docs.append(build_virtual_document(record, stopwords))
        except EmptyDocumentError as exc:
            logger.warning("dropping user %s: %s", record.user_id, exc)
    return docs
