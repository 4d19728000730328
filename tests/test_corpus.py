import json

import pytest

from sentprofile.corpus import (
    UserRecord,
    build_virtual_document,
    build_virtual_documents,
    clean_tokens,
    load_manual_records,
    load_source_reviews,
    load_stopwords,
    load_user_records,
)
from sentprofile.errors import (
    DuplicateKeyError,
    EmptyDocumentError,
    ParseError,
    SchemaError,
)
from sentprofile.gender import read_features


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


JSONL_READERS = [load_user_records, load_source_reviews, load_manual_records,
                 read_features]


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "record is not a JSON object"),
    ('"text"', "record is not a JSON object"),
    ("{not json", "invalid JSON"),
], ids=["list", "string", "broken"])
@pytest.mark.parametrize("load", JSONL_READERS,
                         ids=lambda load: load.__name__)
def test_jsonl_readers_reject_a_bad_line_by_number(tmp_path, load, line,
                                                   message):
    # every JSONL reader skips blank lines and parses the others alike
    path = tmp_path / "in.jsonl"
    path.write_text(f"\n  \n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line 3: {message}"):
        load(path)


class TestLoadUserRecords:
    def test_round_trip(self, tmp_path):
        path = write_jsonl(tmp_path / "u.jsonl", [
            {"user_id": "u1", "gender": "male", "posts": [["hello", "world"]]},
            {"user_id": "u2", "gender": "female", "posts": [["hi"], ["there"]]},
        ])
        records = load_user_records(path)
        assert [r.user_id for r in records] == ["u1", "u2"]
        assert records[0].posts == (("hello", "world"),)
        assert records[1].gender == "female"

    def test_unknown_gender_names_line(self, tmp_path):
        path = write_jsonl(tmp_path / "u.jsonl", [
            {"user_id": "u1", "gender": "male", "posts": [["x"]]},
            {"user_id": "u2", "gender": "other", "posts": [["x"]]},
        ])
        with pytest.raises(SchemaError, match="line 2"):
            load_user_records(path)

    def test_duplicate_user_id(self, tmp_path):
        path = write_jsonl(tmp_path / "u.jsonl", [
            {"user_id": "u1", "gender": "male", "posts": [["x"]]},
            {"user_id": "u1", "gender": "female", "posts": [["y"]]},
        ])
        with pytest.raises(DuplicateKeyError, match="u1"):
            load_user_records(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text('{"user_id": "u1", "gender": "male", "posts": [["x"]]}\n'
                        "{not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_user_records(path)

    def test_empty_posts_dropped(self, tmp_path):
        path = write_jsonl(tmp_path / "u.jsonl", [
            {"user_id": "u1", "gender": "male", "posts": [[], ["kept"]]},
        ])
        assert load_user_records(path)[0].posts == (("kept",),)

    def test_only_empty_post_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "u.jsonl", [
            {"user_id": "u1", "gender": "male", "posts": [[]]},
        ])
        with pytest.raises(SchemaError, match="no non-empty post"):
            load_user_records(path)


class TestLoadManualRecords:
    def test_gender_optional(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"user_id": "m1", "polarity": "positive", "posts": [[], ["x"]]},
            {"user_id": "m2", "gender": "female", "polarity": "negative",
             "posts": [["y"]]},
        ])
        loaded = load_manual_records(path)
        assert [(r.user_id, r.gender, r.posts, polarity)
                for r, polarity in loaded] == [
            ("m1", "male", (("x",),), "positive"),
            ("m2", "female", (("y",),), "negative")]

    # the checks load_user_records makes on user_id and posts
    @pytest.mark.parametrize("record, message", [
        ({"user_id": "m1", "polarity": "positive", "posts": 5},
         "posts must be a list"),
        ({"user_id": "", "polarity": "positive", "posts": [["x"]]},
         "user_id must be a non-empty string"),
        ({"user_id": 7, "polarity": "positive", "posts": [["x"]]},
         "user_id must be a non-empty string"),
    ], ids=["posts-not-a-list", "empty-user-id", "number-user-id"])
    def test_user_fields_checked(self, tmp_path, record, message):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"user_id": "m0", "polarity": "negative", "posts": [["x"]]}, record])
        with pytest.raises(SchemaError, match=f"line 2: {message}"):
            load_manual_records(path)


class TestLoadSourceReviews:
    def test_round_trip(self, tmp_path):
        path = write_jsonl(tmp_path / "r.jsonl", [
            {"review_id": f"r{i}", "polarity": "positive", "tokens": ["good"]}
            for i in range(3)
        ])
        assert len(load_source_reviews(path)) == 3

    def test_unknown_polarity(self, tmp_path):
        path = write_jsonl(tmp_path / "r.jsonl", [
            {"review_id": "r1", "polarity": "3-stars", "tokens": ["x"]},
        ])
        with pytest.raises(SchemaError, match="3-stars"):
            load_source_reviews(path)

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "r.jsonl"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert load_source_reviews(path) == []
        assert any("no reviews" in m for m in caplog.messages)


class TestCleanTokens:
    def test_three_rules_applied(self):
        # stopword "I", link "http://a.b", letterless "!!"
        assert clean_tokens(["I", "love", "http://a.b", "!!"],
                            stopwords={"I"}) == ["love"]

    def test_empty_input(self):
        assert clean_tokens([], stopwords={"x"}) == []

    def test_no_matches_identity(self):
        tokens = ["alpha", "beta", "gamma"]
        assert clean_tokens(tokens, stopwords={"zeta"}) == tokens

    def test_idempotent(self):
        import numpy as np
        rng = np.random.default_rng(0)
        pool = ["word", "http://x", "!!", "of", "数据", "a1", "##", "the"]
        for _ in range(50):
            tokens = [pool[i] for i in rng.integers(0, len(pool), size=12)]
            once = clean_tokens(tokens, stopwords={"of", "the"})
            assert clean_tokens(once, stopwords={"of", "the"}) == once

    def test_output_is_subsequence(self):
        tokens = ["keep1", "!!", "keep2", "http://x", "keep3"]
        out = clean_tokens(tokens)
        it = iter(tokens)
        assert all(any(t == o for t in it) for o in out)

    def test_ideographs_kept(self):
        assert clean_tokens(["你好", "123"]) == ["你好"]


class TestVirtualDocument:
    def test_concatenation_order(self):
        record = UserRecord("u1", "male", (("a", "b"), ("c",)))
        doc = build_virtual_document(record)
        assert doc.tokens == ("a", "b", "c")

    def test_cleaning_applied_per_post(self):
        record = UserRecord("u1", "male", (("x", "http://y"),))
        doc = build_virtual_document(record)
        assert doc.tokens == ("x",)

    def test_all_stopwords_raises(self):
        record = UserRecord("u1", "male", (("of", "the"),))
        with pytest.raises(EmptyDocumentError) as excinfo:
            build_virtual_document(record, stopwords={"of", "the"})
        assert excinfo.value.user_id == "u1"

    def test_deterministic(self):
        record = UserRecord("u1", "female", (("a", "!!"), ("b",)))
        assert build_virtual_document(record) == build_virtual_document(record)

    def test_batch_drop_logs(self, caplog):
        records = [UserRecord("u1", "male", (("ok",),)),
                   UserRecord("u2", "male", (("of",),))]
        with caplog.at_level("WARNING"):
            docs = build_virtual_documents(records, stopwords={"of"})
        assert [d.user_id for d in docs] == ["u1"]
        assert any("u2" in m for m in caplog.messages)

    def test_token_count_matches_cleaned_posts(self):
        import numpy as np
        rng = np.random.default_rng(1)
        pool = ["w1", "w2", "of", "!!", "http://x"]
        for i in range(30):
            posts = tuple(tuple(pool[j] for j in rng.integers(0, len(pool), size=5))
                          for _ in range(rng.integers(1, 4)))
            record = UserRecord(f"u{i}", "male", posts)
            try:
                doc = build_virtual_document(record, stopwords={"of"})
            except EmptyDocumentError:
                continue
            total = sum(len(clean_tokens(p, {"of"})) for p in posts)
            assert total == len(doc.tokens)


def test_stopword_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nof\nthe\n\n", encoding="utf-8")
    assert load_stopwords(path) == {"of", "the"}
