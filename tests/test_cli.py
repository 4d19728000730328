import json
import logging
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sentprofile import cli, experiment
from sentprofile.cli import build_parser, main
from sentprofile.embed import save_embeddings
from sentprofile.errors import TrainingError
from sentprofile.experiment import ExperimentConfig, fit_embeddings, load_corpora
from sentprofile.folds import FoldPlan
from sentprofile.gender import read_features
from sentprofile.nn import load_model, save_model
from sentprofile.sentiment import SentimentModel

from conftest import SMALL_CONFIG


def flags(paths, **extra):
    """Common experiment flags for the small dataset."""
    config = dict(SMALL_CONFIG)
    config.update(extra)
    out = ["--users", paths.users]
    if paths.reviews:
        out += ["--reviews", paths.reviews]
    if paths.stopwords:
        out += ["--stopwords", paths.stopwords]
    mapping = {"folds": "--folds", "dimension": "--dimension",
               "window": "--window", "negatives": "--negatives",
               "embed_epochs": "--embed-epochs", "min_count": "--min-count",
               "r": "--r", "hidden_size": "--hidden-size",
               "sentiment_epochs": "--sentiment-epochs",
               "batch_size": "--batch-size", "learning_rate": "--learning-rate",
               "keyword_top_n": "--keyword-top-n"}
    for key, flag in mapping.items():
        if key in config:
            out += [flag, str(config[key])]
    if "epochs" in config:
        out += ["--epochs", ",".join(str(e) for e in config["epochs"])]
    return out


def test_synth_data_and_evaluate_round_trip(tmp_path, capsys):
    data_dir = tmp_path / "data"
    code = main(["synth-data", "--users", "40", "--reviews", "30",
                 "--seed", "3", "--out-dir", str(data_dir)])
    assert code == 0
    assert (data_dir / "users.jsonl").exists()
    assert (data_dir / "reviews.jsonl").exists()
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    code = main(["evaluate", "--users", str(data_dir / "users.jsonl"),
                 "--stopwords", str(data_dir / "stopwords.txt"),
                 "--folds", "2", "--dimension", "6", "--window", "2",
                 "--negatives", "2", "--embed-epochs", "1", "--min-count", "2",
                 "--epochs", "2", "--seed", "1",
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["results"][0]["folds"]) == 2


def test_evaluate_deterministic_bytes(small_dataset, tmp_path, capsys):
    args = ["evaluate"] + flags(small_dataset) + ["--seed", "6"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_finetuned_smote_evaluate_deterministic_bytes(small_dataset, tmp_path,
                                                      capsys):
    # the mode that backpropagates the gender loss through the LSTM
    args = (["evaluate"] + flags(small_dataset)
            + ["--seed", "6", "--sentiment-mode", "finetuned_lstm", "--smote"])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    report = json.loads(out1.read_text())
    assert report["config"]["sentiment_mode"] == "finetuned_lstm"
    assert report["config"]["smote"] is True
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_table_format(small_dataset, capsys):
    code = main(["evaluate"] + flags(small_dataset) + ["--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "avg" in out and "D1" in out


def test_config_file_with_flag_override(small_dataset, tmp_path, capsys):
    config_file = tmp_path / "run.conf"
    lines = [f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
             for k, v in SMALL_CONFIG.items()]
    config_file.write_text("\n".join(lines) + "\nfolds=2\n", encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["evaluate", "--users", small_dataset.users,
                 "--stopwords", small_dataset.stopwords,
                 "--config", str(config_file),
                 "--folds", "3",  # explicit flag wins over the file
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert len(json.loads(out.read_text())["results"][0]["folds"]) == 3


def test_exit_code_2_on_config_error(small_dataset, capsys):
    code = main(["evaluate"] + flags(small_dataset) +
                ["--sentiment-mode", "frozen_lstm",
                 "--source-mode", "high_similarity",
                 "--similarity-threshold", "7.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err


def test_bad_epochs_flag_exits_2(small_dataset, capsys):
    # the flag goes through the parser the config file's epochs line uses
    code = main(["evaluate"] + flags(small_dataset) + ["--epochs", "1,x"])
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err
    assert "'1,x'" in captured.err


def test_exit_code_3_on_missing_file(tmp_path, capsys):
    code = main(["evaluate", "--users", str(tmp_path / "absent.jsonl")])
    captured = capsys.readouterr()
    assert code == 3
    assert "data error" in captured.err


def test_exit_code_3_on_malformed_data(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    code = main(["evaluate", "--users", str(bad)])
    assert code == 3
    capsys.readouterr()


def test_negative_seed_exits_2(small_dataset, tmp_path, capsys):
    # numpy rejects a negative seed only once a generator is made, which
    # used to end the run with a traceback and exit 1
    code = main(["evaluate"] + flags(small_dataset) + ["--seed", "-1"])
    assert code == 2
    assert "configuration error: seed must be >= 0" in capsys.readouterr().err
    code = main(["synth-data", "--users", "10", "--reviews", "10",
                 "--seed", "-1", "--out-dir", str(tmp_path / "data")])
    assert code == 2
    assert "configuration error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


# one bad value per ExperimentConfig field, as config-file lines (z is only
# read under a high_similarity source mode)
BAD_EXPERIMENT_SETTINGS = {
    "representation": {"representation": "bag_of_words"},
    "sentiment_mode": {"sentiment_mode": "frozen_gru"},
    "source_mode": {"source_mode": "all"},
    "smote": {"smote": "maybe"},
    "smote_k": {"smote_k": "0"},
    "z": {"source_mode": "high_similarity", "z": "1.5"},
    "epochs": {"epochs": "0"},
    "seed": {"seed": "-1"},
    "folds": {"folds": "1"},
    "dimension": {"dimension": "0"},
    "window": {"window": "0"},
    "negatives": {"negatives": "-1"},
    "embed_epochs": {"embed_epochs": "0"},
    "min_count": {"min_count": "0"},
    "r": {"r": "0"},
    "keyword_top_n": {"keyword_top_n": "0"},
    "hidden_size": {"hidden_size": "0"},
    "sentiment_dropout": {"sentiment_dropout": "1.0"},
    "sentiment_epochs": {"sentiment_epochs": "0"},
    "batch_size": {"batch_size": "0"},
    "learning_rate": {"learning_rate": "0"},
    "optimizer": {"optimizer": "rmsprop"},
    "mlp_dropout": {"mlp_dropout": "1"},
}

# further bad values of fields whose row above holds another kind of value
MORE_BAD_EXPERIMENT_SETTINGS = [
    ("learning_rate", {"learning_rate": "inf"}),
]

# one bad value per synth-data flag that sets the generated data
BAD_SYNTH_FLAGS = {
    "users": ["--users", "1"],
    "reviews": ["--reviews", "-1"],
    "seed": ["--seed", "-1"],
    "marker_correlation": ["--marker-correlation", "1.0"],
}


def test_every_setting_rejects_a_bad_value_with_exit_2(tmp_path, capsys):
    # a setting without a row fails here, so none can skip its check
    assert set(BAD_EXPERIMENT_SETTINGS) == {
        f.name for f in fields(ExperimentConfig)}
    synth_dests = vars(build_parser().parse_args(["synth-data", "--out-dir", "x"]))
    assert set(BAD_SYNTH_FLAGS) == set(synth_dests) - {
        "command", "func", "verbose", "out_dir"}
    # the users file does not exist, so loading any data would exit 3
    absent = str(tmp_path / "absent.jsonl")
    failures = []
    for case, (name, lines) in enumerate([*BAD_EXPERIMENT_SETTINGS.items(),
                                          *MORE_BAD_EXPERIMENT_SETTINGS]):
        config = tmp_path / f"{case}.conf"
        config.write_text("".join(f"{key}={value}\n"
                                  for key, value in lines.items()))
        code = main(["evaluate", "--users", absent, "--config", str(config)])
        err = capsys.readouterr().err
        # the message names the field the user set, not a component's own
        if (code != 2 or "configuration error" not in err
                or not re.search(rf"\b{name}\b", err)):
            failures.append((name, code, err))
    for name, flag in BAD_SYNTH_FLAGS.items():
        out_dir = tmp_path / f"synth_{name}"
        code = main(["synth-data", *flag, "--out-dir", str(out_dir)])
        if (code != 2 or out_dir.exists()
                or "configuration error" not in capsys.readouterr().err):
            failures.append((name, code))
    assert not failures


def test_zero_dimension_embeddings_exit_3(small_dataset, tmp_path, capsys):
    path = tmp_path / "emb.txt"
    path.write_text("2 0\nmarka0\nmarkb0\n", encoding="utf-8")
    code = main(["evaluate"] + flags(small_dataset) +
                ["--embeddings", str(path)])
    assert code == 3
    assert "data error: line 1: header dimension" in capsys.readouterr().err


def test_select_source_fits_embeddings_when_none_given(small_dataset, tmp_path,
                                                       capsys):
    # without --embeddings the table is fitted on both corpora, as in
    # sentiment-train, instead of failing to load a missing file
    out = tmp_path / "selected.jsonl"
    code = main(["select-source"] + flags(small_dataset) +
                ["--similarity-threshold", "0.01", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    kept = [line for line in captured.out.splitlines()
            if line.startswith("kept ")]
    assert len(kept) == 1
    n_kept = int(kept[0].split()[1])
    assert kept[0].startswith(f"kept {n_kept} of ")
    assert len(out.read_text().splitlines()) == n_kept >= 1


def test_select_source_checks_the_threshold_before_any_work(
        monkeypatch, small_dataset, tmp_path, capsys):
    # select-source validates its config under high_similarity, the mode
    # it selects by, so a threshold out of range fails with validate's
    # message before the corpora are loaded
    def load_corpora(paths):
        raise AssertionError("loaded the corpora")

    monkeypatch.setattr(cli, "load_corpora", load_corpora)
    code = main(["select-source"] + flags(small_dataset) +
                ["--similarity-threshold", "5",
                 "--out", str(tmp_path / "selected.jsonl")])
    assert code == 2
    assert ("configuration error: z must be in (0, 1), got 5.0"
            in capsys.readouterr().err)


def test_staged_pipeline(small_dataset, tmp_path, capsys):
    work = tmp_path

    code = main(["embed"] + flags(small_dataset) +
                ["--out", str(work / "emb.txt")])
    assert code == 0

    code = main(["select-source"] + flags(small_dataset) +
                ["--embeddings", str(work / "emb.txt"),
                 "--similarity-threshold", "0.05",
                 "--out", str(work / "selected.jsonl")])
    assert code == 0
    assert (work / "selected.jsonl").read_text().strip()

    code = main(["sentiment-train"] + flags(small_dataset) +
                ["--embeddings", str(work / "emb.txt"),
                 "--out", str(work / "sent.bin"), "--seed", "0"])
    assert code == 0

    code = main(["extract"] + flags(small_dataset) +
                ["--model", str(work / "sent.bin"),
                 "--sentiment-mode", "frozen_lstm",
                 "--embeddings", str(work / "emb.txt"),
                 "--out", str(work / "features.jsonl")])
    assert code == 0

    code = main(["smote", "--in", str(work / "features.jsonl"),
                 "--smote-k", "2", "--seed", "0",
                 "--out", str(work / "balanced.jsonl")])
    assert code == 0
    rows = [json.loads(l) for l in
            (work / "balanced.jsonl").read_text().splitlines()]
    labels = [r["label"] for r in rows]
    assert labels.count("male") == labels.count("female")

    code = main(["gender-train", "--in", str(work / "balanced.jsonl"),
                 "--epochs", "3", "--seed", "0",
                 "--out", str(work / "gender.bin")])
    assert code == 0
    assert (work / "gender.bin").exists()
    capsys.readouterr()


def test_sentiment_train_with_selection_and_manual(small_dataset, tmp_path, capsys):
    work = tmp_path
    code = main(["sentiment-train"] + flags(small_dataset) +
                ["--source-mode", "high_similarity_plus_manual",
                 "--similarity-threshold", "0.05",
                 "--manual-labels", small_dataset.manual,
                 "--out", str(work / "sent.bin"), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "trained on" in captured.out


@pytest.mark.parametrize("source_mode", ["entire", "high_similarity"])
def test_sentiment_train_saves_the_model_evaluate_reads(small_dataset, tmp_path,
                                                       capsys, monkeypatch,
                                                       source_mode):
    # a staged sentiment-train -> extract run reads the model every fold
    # of `evaluate` reads, trained with fold 1's seed
    trained = []
    train = experiment.train_sentiment

    def recorded(*args, **kwargs):
        model, curve = train(*args, **kwargs)
        trained.append(model)
        return model, curve

    monkeypatch.setattr(experiment, "train_sentiment", recorded)
    config = ExperimentConfig(**dict(SMALL_CONFIG, sentiment_mode="frozen_lstm",
                                     source_mode=source_mode, z=0.05))
    experiment._run_cells([config], small_dataset)
    path = tmp_path / "sent.bin"
    code = main(["sentiment-train"] + flags(small_dataset) +
                ["--source-mode", source_mode, "--similarity-threshold", "0.05",
                 "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    evaluated, saved = trained
    assert saved.seed == evaluated.seed == experiment._fold_seed(0, 0, 1)
    assert load_model(path).checksum() == evaluated.checksum()


def _embeddings(paths, tmp_path):
    """A table trained on the small dataset, saved once per test."""
    path = tmp_path / "emb.txt"
    if not path.exists():
        config = ExperimentConfig(**SMALL_CONFIG)
        _, docs, reviews, _ = load_corpora(paths)
        save_embeddings(fit_embeddings(config, docs, reviews), path)
    return path


def test_staged_commands_take_settings_from_config(small_dataset, tmp_path,
                                                   capsys):
    config_file = tmp_path / "run.conf"
    config_file.write_text("seed=9\nsmote_k=500\nmlp_dropout=0.2\n",
                           encoding="utf-8")
    sent = tmp_path / "sent.bin"
    code = main(["sentiment-train"] + flags(small_dataset) +
                ["--config", str(config_file), "--out", str(sent)])
    assert code == 0
    # the seed of fold 1, which evaluate trains the model with
    assert load_model(sent).seed == experiment._fold_seed(9, 0, 1)

    # an explicit flag still wins over the file
    code = main(["sentiment-train"] + flags(small_dataset) +
                ["--config", str(config_file), "--seed", "4",
                 "--out", str(sent)])
    assert code == 0
    assert load_model(sent).seed == experiment._fold_seed(4, 0, 1)

    features = tmp_path / "features.jsonl"
    code = main(["extract"] + flags(small_dataset) +
                ["--model", str(sent), "--sentiment-mode", "frozen_lstm",
                 "--embeddings", str(_embeddings(small_dataset, tmp_path)),
                 "--config", str(config_file), "--out", str(features)])
    assert code == 0
    # k=500 from the file exceeds the minority class; the flag overrides it
    smote_args = ["smote", "--in", str(features), "--config", str(config_file),
                  "--out", str(tmp_path / "balanced.jsonl")]
    assert main(smote_args) == 3
    assert main(smote_args + ["--smote-k", "2"]) == 0
    gender = tmp_path / "gender.bin"
    code = main(["gender-train", "--in", str(features), "--epochs", "2",
                 "--config", str(config_file), "--out", str(gender)])
    assert code == 0
    model = load_model(gender)
    assert (model.seed, model.dropout_rate) == (9, 0.2)
    capsys.readouterr()


def test_out_of_vocabulary_user_dropped_by_staged_commands(small_dataset,
                                                           tmp_path, caplog,
                                                           capsys):
    # the table knows none of this user's tokens
    users = tmp_path / "users.jsonl"
    users.write_text(Path(small_dataset.users).read_text(encoding="utf-8") +
                     json.dumps({"user_id": "oov-user", "gender": "male",
                                 "posts": [["qqunseenword"]]}) + "\n",
                     encoding="utf-8")
    emb = _embeddings(small_dataset, tmp_path)
    common = (flags(replace(small_dataset, users=str(users))) +
              ["--embeddings", str(emb), "--similarity-threshold", "0.05"])

    def dropped_users():
        found = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("dropping user")]
        caplog.clear()
        return found

    with caplog.at_level(logging.WARNING):
        code = main(["sentiment-train"] + common +
                    ["--source-mode", "high_similarity",
                     "--out", str(tmp_path / "sent.bin")])
        assert code == 0
        assert dropped_users() == ["dropping user oov-user: all tokens out "
                                   "of vocabulary"]
        code = main(["select-source"] + common +
                    ["--out", str(tmp_path / "selected.jsonl")])
        assert code == 0
        assert len(dropped_users()) == 1
        code = main(["extract"] + common +
                    ["--model", str(tmp_path / "sent.bin"),
                     "--sentiment-mode", "frozen_lstm",
                     "--out", str(tmp_path / "features.jsonl")])
        assert code == 0
        assert len(dropped_users()) == 1
    capsys.readouterr()
    ids, _, _, _ = read_features(tmp_path / "features.jsonl")
    assert "oov-user" not in ids


@pytest.mark.parametrize("representation, mode", [
    ("tfidf", "frozen_lstm"),
    ("avg_vector", "polarity_features"),
    ("keyword_tfidf", "frozen_dense"),
])
def test_extract_writes_the_features_evaluate_trains_on(
        small_dataset, tmp_path, capsys, monkeypatch, cores, representation,
        mode):
    # embed -> sentiment-train -> extract gives, byte for byte, the feature
    # rows evaluate trains its gender MLPs on for the same config
    emb, sent, out = (tmp_path / "emb.txt", tmp_path / "sent.bin",
                      tmp_path / "features.jsonl")
    common = flags(small_dataset) + ["--representation", representation,
                                     "--sentiment-mode", mode]
    assert main(["embed"] + common + ["--out", str(emb)]) == 0
    assert main(["sentiment-train"] + common +
                ["--embeddings", str(emb), "--out", str(sent)]) == 0
    assert main(["extract"] + common +
                ["--model", str(sent), "--embeddings", str(emb),
                 "--out", str(out)]) == 0
    capsys.readouterr()

    config = ExperimentConfig(**dict(SMALL_CONFIG, representation=representation,
                                     sentiment_mode=mode))
    trained, train_ids = {}, {}
    split, train_gender = FoldPlan.split, experiment.train_gender

    def recorded(plan, index):
        # each fold's training users, by the seed its gender model gets
        train, test = split(plan, index)
        train_ids[experiment._fold_seed(config.seed, index, 1)] = train
        return train, test

    def recorded_gender(features, labels, *args, seeds, **kwargs):
        for seed, x_train in zip(seeds, features):
            trained.update(zip(train_ids[seed], x_train))
        return train_gender(features, labels, *args, seeds=seeds, **kwargs)

    monkeypatch.setattr(FoldPlan, "split", recorded)
    monkeypatch.setattr(experiment, "train_gender", recorded_gender)
    # one process: every fold's MLP trains here, where its feature rows are
    # recorded; a forked part's would be lost
    cores(1)
    experiment._run_cells([config], replace(small_dataset, embeddings=str(emb)))
    ids, _, matrix, layout = read_features(out)
    assert layout == ("doc_vector", "sentiment")
    assert sorted(ids) == sorted(trained)
    assert matrix.tobytes() == np.stack([trained[uid] for uid in ids]).tobytes()


@pytest.mark.parametrize("extra", [
    ["--sentiment-mode", "frozen_lstm"],
    ["--sentiment-mode", "none", "--embeddings", "emb.txt"],
    ["--sentiment-mode", "finetuned_lstm", "--embeddings", "emb.txt"],
], ids=["no-embeddings", "none", "finetuned_lstm"])
def test_extract_exit_2_on_what_it_cannot_write(small_dataset, tmp_path, capsys,
                                                extra):
    # a model reads word vectors of its own table's width, and a feature
    # file holds no finetuned composite
    out = tmp_path / "features.jsonl"
    code = main(["extract"] + flags(small_dataset) +
                ["--model", str(tmp_path / "sent.bin"), "--out", str(out)]
                + extra)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_embeddings_of_another_dimension_exit_3(small_dataset, tmp_path,
                                                capsys, monkeypatch):
    # the report would record a dimension the run did not use
    def never(*args, **kwargs):
        raise AssertionError("trained on a table of the wrong dimension")

    monkeypatch.setattr(experiment, "train_sentiment", never)
    dimension = SMALL_CONFIG["dimension"]
    code = main(["evaluate"] + flags(small_dataset, dimension=dimension + 2) +
                ["--embeddings", str(_embeddings(small_dataset, tmp_path)),
                 "--sentiment-mode", "frozen_lstm"])
    assert code == 3
    err = capsys.readouterr().err
    assert (f"holds {dimension}-dimensional vectors, but dimension is "
            f"{dimension + 2}") in err


def test_extract_exit_3_on_a_model_of_another_dimension(small_dataset,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    # the model reads vectors of another width than the table holds; no
    # user's row is built before that is reported
    def never(*args, **kwargs):
        raise AssertionError("built the user rows")

    monkeypatch.setattr(cli, "user_features", never)
    dimension = SMALL_CONFIG["dimension"]
    sent = tmp_path / "sent.bin"
    save_model(SentimentModel(dimension - 2, hidden_size=4), sent)
    code = main(["extract"] + flags(small_dataset) +
                ["--model", str(sent), "--sentiment-mode", "frozen_lstm",
                 "--embeddings", str(_embeddings(small_dataset, tmp_path)),
                 "--out", str(tmp_path / "features.jsonl")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"reads {dimension - 2}-dimensional word vectors" in err
    assert f"holds {dimension}-dimensional ones" in err


def feature_file_ending_in(tmp_path, values: str):
    """A feature file of 8 good rows, then one whose 'values' field is the
    JSON text `values`."""
    features = tmp_path / "features.jsonl"
    features.write_text(
        "".join(json.dumps({"user_id": f"u{i}", "label": label,
                            "layout": ["doc_vector"],
                            "values": [float(i), 1.0]}) + "\n"
                for i, label in enumerate(["male", "female"] * 4))
        + '{"user_id": "u8", "label": "male", "layout": ["doc_vector"], '
          f'"values": {values}}}\n', encoding="utf-8")
    return features


@pytest.mark.parametrize("command", ["smote", "gender-train"])
def test_non_finite_feature_value_exits_3(tmp_path, capsys, command):
    features = feature_file_ending_in(tmp_path, "[NaN, 1.0]")
    code = main([command, "--in", str(features), "--out", str(tmp_path / "out")])
    assert code == 3
    assert ("line 9: field 'values' holds a non-finite number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["smote", "gender-train"])
def test_integer_beyond_float_range_exits_3(tmp_path, capsys, command):
    # JSON reads 10**400 as an exact integer; as a float it is infinite
    features = feature_file_ending_in(tmp_path, f"[{10**400}, 1.0]")
    code = main([command, "--in", str(features), "--out", str(tmp_path / "out")])
    assert code == 3
    assert ("line 9: field 'values' holds a non-finite number"
            in capsys.readouterr().err)


def test_value_beyond_float32_range_exits_3(tmp_path, capsys):
    # finite as a float64, infinite once cast to the MLP's float32: the
    # check runs before the cast, whose overflow warning the suite makes
    # an error
    features = feature_file_ending_in(tmp_path, "[1e39, 1.0]")
    code = main(["gender-train", "--in", str(features), "--epochs", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "float32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_other_pipeline_error_exits_1(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise TrainingError("non-finite gradient")

    monkeypatch.setattr(cli, "train_gender", failing)
    features = feature_file_ending_in(tmp_path, "[8.0, 1.0]")
    code = main(["gender-train", "--in", str(features), "--epochs", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: non-finite gradient")


@pytest.mark.parametrize("key", ["smote_ratio", "smote_variant"])
def test_removed_smote_keys_are_unknown(tmp_path, capsys, key):
    features = feature_file_ending_in(tmp_path, "[8.0, 1.0]")
    config = tmp_path / "run.conf"
    config.write_text(f"{key}=1\n", encoding="utf-8")
    code = main(["smote", "--in", str(features), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["smote", "gender-train"])
def test_feature_rows_without_values_exit_3(tmp_path, capsys, command):
    # a data fault, not a configuration one: the classifier would have no
    # input
    features = tmp_path / "features.jsonl"
    features.write_text(
        "".join(json.dumps({"user_id": f"u{i}", "label": label, "layout": [],
                            "values": []}) + "\n"
                for i, label in enumerate(["male", "female"] * 4)),
        encoding="utf-8")
    code = main([command, "--in", str(features), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "line 1: field 'values' is empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["smote", "gender-train"])
def test_feature_file_without_rows_exits_3(tmp_path, capsys, command):
    empty = tmp_path / "features.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main([command, "--in", str(empty), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "no feature rows" in capsys.readouterr().err


def test_grid_writes_reports(small_dataset, tmp_path, capsys):
    out_dir = tmp_path / "grid"
    code = main(["grid"] + flags(small_dataset, epochs=(2,)) +
                ["--manual-labels", small_dataset.manual,
                 "--out-dir", str(out_dir), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    reports = sorted(out_dir.glob("*.json"))
    # 4 source modes x 3 layers
    assert len(reports) == 12
    assert "frozen_lstm" in captured.out


def test_gender_train_exit_3_on_bad_features(tmp_path, capsys):
    bad = tmp_path / "features.jsonl"
    bad.write_text('{"user_id": "u", "label": "male", "layout": ["doc_vector"]}\n',
                   encoding="utf-8")
    code = main(["gender-train", "--in", str(bad), "--epochs", "1",
                 "--out", str(tmp_path / "g.bin")])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["misshaped_sentiment", "gender_without_input_dim",
                                 "gender"])
def test_bad_checkpoint_exits_3(small_dataset, tmp_path, capsys, bad):
    from sentprofile.gender import GenderModel
    from sentprofile.nn import write_checkpoint
    from sentprofile.sentiment import SentimentModel

    if bad == "misshaped_sentiment":
        model = SentimentModel(input_dim=8, hidden_size=6)
        meta = dict(model.checkpoint_meta(), model_kind="sentiment")
        params = dict(model.parameters(), **{"lstm.bias": np.zeros(5)})
    else:
        # a gender checkpoint is no sentiment model, even a readable one
        model = GenderModel(input_dim=8)
        meta = dict(model.checkpoint_meta(), model_kind="gender")
        if bad == "gender_without_input_dim":
            del meta["input_dim"]
        params = model.parameters()
    path = tmp_path / "bad.bin"
    write_checkpoint(path, meta, params)
    code = main(["extract"] + flags(small_dataset) +
                ["--model", str(path), "--sentiment-mode", "frozen_lstm",
                 "--embeddings", str(_embeddings(small_dataset, tmp_path)),
                 "--out", str(tmp_path / "features.jsonl")])
    assert code == 3
    assert "data error: checkpoint" in capsys.readouterr().err
