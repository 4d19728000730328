import gc
import hashlib
import json
import pickle
import weakref
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from sentprofile import experiment, procs
from sentprofile.domainsel import select_source
from sentprofile.errors import ConfigError, DataError, TrainingError
from sentprofile.gender import CLASSES, train_gender
from sentprofile.experiment import (
    GRID_LAYERS,
    SOURCE_MODES,
    DataPaths,
    EpochColumn,
    EvalReport,
    ExperimentConfig,
    emit_report,
    load_config_file,
    parse_config_text,
    run_experiment,
    run_grid,
)

from conftest import (
    SMALL_CONFIG,
    UNEMBEDDABLE,
    make_table,
    with_unembeddable_documents,
)


def small_experiment(**overrides):
    kwargs = dict(SMALL_CONFIG)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestExperimentConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("overrides", [
        {"representation": "bag_of_words"},
        {"sentiment_mode": "frozen_gru"},
        {"source_mode": "all"},
        {"epochs": ()},
        {"epochs": (0,)},
        {"folds": 1},
        {"source_mode": "high_similarity", "z": 1.5},
        {"hidden_size": 0},
        {"sentiment_dropout": 1.0},
        {"sentiment_dropout": -0.1},
        {"seed": -1},
        {"sentiment_epochs": 0},
        {"mlp_dropout": 1.5},
        {"r": 0},
        {"keyword_top_n": 0},
    ])
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides).validate()

    def test_epoch_grid_from_config(self):
        raw = parse_config_text("epochs=60,80,100,150,200,250,300\n")
        config = ExperimentConfig.from_dict(raw)
        assert config.epochs == (60, 80, 100, 150, 200, 250, 300)

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nsentiment_mode=frozen_lstm\nz=0.3\n"
                        "smote=true\nfolds=4\n", encoding="utf-8")
        raw = load_config_file(path)
        config = ExperimentConfig.from_dict(raw)
        assert config.sentiment_mode == "frozen_lstm"
        assert config.z == 0.3
        assert config.smote is True
        assert config.folds == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config_text("mystery=1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just words\n")

    @pytest.mark.parametrize("line", ["epochs=60,x", "folds=three"])
    def test_unparsable_value_names_its_line(self, line):
        with pytest.raises(ConfigError, match="config line 2: cannot parse"):
            parse_config_text(f"# grid\n{line}\n")

    @pytest.mark.parametrize("epochs", ["60,x", ["60", "x"], None])
    def test_unparsable_epochs_rejected_by_from_dict(self, epochs):
        with pytest.raises(ConfigError, match="comma-separated list"):
            ExperimentConfig.from_dict({"epochs": epochs})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(seed=99)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize("component, build", [
        ("TrainConfig", lambda config: config.train_config(3)),
        ("ResampleConfig", lambda config: config.resample_config()),
        ("EmbedConfig", lambda config: config.embed_config()),
    ], ids=["train", "resample", "embed"])
    def test_builders_set_every_component_field(self, monkeypatch, component,
                                                build):
        # a component option that no builder passes is one that no run can
        # set; it belongs in ExperimentConfig or nowhere
        cls = getattr(experiment, component)
        recorded = []
        monkeypatch.setattr(experiment, component,
                            lambda **kwargs: recorded.append(set(kwargs)))
        build(ExperimentConfig())
        assert recorded == [{f.name for f in fields(cls)}]


class TestReports:
    def make_report(self):
        return EvalReport(config=ExperimentConfig().to_dict(),
                          config_hash="abc123def456", seed=7,
                          columns=[EpochColumn(epochs=60,
                                               fold_accuracies=[0.8, 0.9, 0.7]),
                                   EpochColumn(epochs=80,
                                               fold_accuracies=[0.85, 0.95, 0.75])],
                          timing_seconds=12.5)

    def test_mean_is_arithmetic_mean(self):
        report = self.make_report()
        for col in report.columns:
            assert col.mean_accuracy == pytest.approx(
                sum(col.fold_accuracies) / len(col.fold_accuracies), abs=1e-12)

    def test_csv_one_line_per_cell(self):
        report = self.make_report()
        text = emit_report(report, fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "fold,accuracy,epochs,config_hash"
        assert len(lines) == 1 + 2 * 3
        assert lines[1].startswith("D1,0.8")
        assert lines[1].endswith("abc123def456")

    def test_table_layout(self):
        report = self.make_report()
        text = emit_report(report, fmt="table")
        lines = text.strip().splitlines()
        assert lines[0].split() == ["fold", "60", "80"]
        assert lines[1].split()[0] == "D1"
        assert lines[-1].split()[0] == "avg"
        assert lines[-1].split()[1] == "80.00"

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(self.make_report(), fmt="xml")

    def test_file_output(self, tmp_path):
        out = tmp_path / "report.json"
        emit_report(self.make_report(), fmt="json", out=out)
        assert json.loads(out.read_text())["seed"] == 7


class TestRunExperiment:
    def test_baseline_runs(self, small_dataset):
        report = run_experiment(small_experiment(), small_dataset)
        assert len(report.columns) == 1
        col = report.columns[0]
        assert len(col.fold_accuracies) == 3
        assert all(0.0 <= a <= 1.0 for a in col.fold_accuracies)
        assert report.timing_seconds > 0

    def test_byte_identical_reports_same_seed(self, small_dataset):
        config = small_experiment(seed=4)
        r1 = run_experiment(config, small_dataset)
        r2 = run_experiment(config, small_dataset)
        assert r1.to_json().encode() == r2.to_json().encode()

    def test_epoch_grid_reuses_folds(self, small_dataset):
        report = run_experiment(small_experiment(epochs=(2, 3)), small_dataset)
        assert [c.epochs for c in report.columns] == [2, 3]
        assert all(len(c.fold_accuracies) == 3 for c in report.columns)

    @pytest.mark.parametrize("mode", ["polarity_features", "frozen_lstm",
                                      "frozen_dense"])
    def test_sentiment_modes(self, small_dataset, mode):
        report = run_experiment(small_experiment(sentiment_mode=mode),
                                small_dataset)
        assert len(report.columns[0].fold_accuracies) == 3

    @pytest.mark.parametrize("mode", ["none", "polarity_features",
                                      "frozen_lstm", "finetuned_lstm"])
    def test_epoch_grid_scores_as_separate_runs(self, small_dataset, mode):
        # each fold trains once; unsorted and repeated grid entries score
        # as runs of exactly that many epochs, in config order, whether a
        # fold reads base rows alone, joined with features, or a composite
        grid = run_experiment(small_experiment(sentiment_mode=mode,
                                               epochs=(3, 2, 3)), small_dataset)
        single = {e: run_experiment(small_experiment(sentiment_mode=mode,
                                                     epochs=(e,)),
                                    small_dataset).columns[0].fold_accuracies
                  for e in (2, 3)}
        assert ([(c.epochs, c.fold_accuracies) for c in grid.columns]
                == [(e, single[e]) for e in (3, 2, 3)])

    def test_finetuned_mode(self, small_dataset):
        report = run_experiment(small_experiment(sentiment_mode="finetuned_lstm"),
                                small_dataset)
        assert len(report.columns[0].fold_accuracies) == 3

    def test_high_similarity_selection_reported(self, small_dataset):
        report = run_experiment(
            small_experiment(sentiment_mode="frozen_lstm",
                             source_mode="high_similarity", z=0.05),
            small_dataset)
        assert report.selection is not None
        assert 0 < report.selection["kept"] <= report.selection["total"]

    def test_manual_augmentation(self, small_dataset):
        report = run_experiment(
            small_experiment(sentiment_mode="frozen_lstm",
                             source_mode="entire_plus_manual"),
            small_dataset)
        assert len(report.columns[0].fold_accuracies) == 3

    def test_manual_mode_without_manual_path(self, small_dataset):
        paths = DataPaths(users=small_dataset.users,
                          reviews=small_dataset.reviews,
                          stopwords=small_dataset.stopwords)
        with pytest.raises(DataError, match="manual"):
            run_experiment(small_experiment(sentiment_mode="frozen_lstm",
                                            source_mode="entire_plus_manual"),
                           paths)

    def test_smote_on(self, small_dataset):
        report = run_experiment(small_experiment(smote=True, smote_k=2),
                                small_dataset)
        assert len(report.columns[0].fold_accuracies) == 3

    def test_tfidf_representations(self, small_dataset):
        for representation in ("tfidf", "keyword_tfidf"):
            report = run_experiment(
                small_experiment(representation=representation), small_dataset)
            assert len(report.columns[0].fold_accuracies) == 3

    def test_sentiment_none_ignores_source_mode(self, small_dataset, caplog):
        with caplog.at_level("INFO"):
            run_experiment(small_experiment(source_mode="high_similarity"),
                           small_dataset)
        assert any("ignored" in m for m in caplog.messages)

    def test_sentiment_mode_without_reviews(self, small_dataset):
        paths = DataPaths(users=small_dataset.users, stopwords=small_dataset.stopwords)
        with pytest.raises(DataError, match="reviews"):
            run_experiment(small_experiment(sentiment_mode="frozen_lstm"), paths)

    @pytest.mark.parametrize("mode", ["none", "finetuned_lstm"])
    def test_fold_error_carries_fold_index(self, small_dataset, mode):
        # an oversampling failure inside a fold names the fold, for an MLP
        # and for a composite in the joint space alike
        with pytest.raises(DataError, match="fold 1"):
            run_experiment(small_experiment(smote=True, smote_k=500,
                                            sentiment_mode=mode),
                           small_dataset)

    @pytest.mark.parametrize("mode, parameter, n_cores, fold, trained", [
        ("frozen_lstm", "layer0.weights", 1, 1, [3]),
        ("frozen_lstm", "layer0.weights", 2, 1, [1]),
        ("frozen_lstm", "layer0.weights", 2, 2, [1]),
        ("frozen_lstm", "layer0.weights", 3, 1, [1]),
        ("frozen_lstm", "layer0.weights", 3, 2, [1]),
        ("finetuned_lstm", "mlp.layer0.weights", 1, 1,
         ["composite", "composite"]),
    ], ids=["frozen_lstm", "frozen_lstm-2-cores-forked",
            "frozen_lstm-2-cores-here", "frozen_lstm-3-cores-forked",
            "frozen_lstm-3-cores-here", "finetuned_lstm"])
    def test_non_finite_gradient_names_its_fold(self, monkeypatch, cores,
                                                small_dataset, mode,
                                                parameter, n_cores, fold,
                                                trained):
        # the gender models train after the sentiment pass has served every
        # fold: the MLPs of each part of the folds as one stack, the
        # composites one at a time; a non-finite gradient in fold `fold`
        # (0-based) still fails with the category and message a
        # fold-by-fold run gives, naming the fold once, whether its part
        # trains here or in a child. At 2 cores of 3 folds the parts are
        # folds 1-2 (forked) and 3 (here), at 3 cores one fold each, the
        # last one here
        config = small_experiment(sentiment_mode=mode)
        fold_sentiment, stacks = experiment._fold_sentiment, []
        # the fold's training inputs, told apart by the seed its model gets:
        # the MLP features, or the composite's base rows, turn to NaN
        failing = experiment._fold_seed(config.seed, fold, 1)

        def recorded(runs, cell):
            def counted(prepare):
                def prepared(folds):
                    train = prepare(folds)

                    def trained():
                        readouts = train()
                        stacks.extend([None] * len(readouts))
                        return readouts
                    return trained
                return prepared
            return [replace(part, prepare=counted(part.prepare))
                    for part in fold_sentiment(runs, cell)]

        train, finetune = experiment.train_gender, experiment.train_finetune

        def counted(features, *args, seeds, **kwargs):
            stacks.append(len(seeds))
            features = [np.full_like(x, np.nan) if seed == failing else x
                        for x, seed in zip(features, seeds)]
            return train(features, *args, seeds=seeds, **kwargs)

        def counted_finetune(model, vecs, mats, lengths, labels, train_config,
                             **kwargs):
            stacks.append("composite")
            if train_config.seed == failing:
                vecs = np.full_like(vecs, np.nan)
            return finetune(model, vecs, mats, lengths, labels, train_config,
                            **kwargs)

        monkeypatch.setattr(experiment, "_fold_sentiment", recorded)
        monkeypatch.setattr(experiment, "train_gender", counted)
        monkeypatch.setattr(experiment, "train_finetune", counted_finetune)
        # the calls are recorded in this process; a forked part's are lost
        cores(n_cores)
        with pytest.raises(TrainingError) as caught:
            run_experiment(config, small_dataset)
        assert str(caught.value) == (f"fold {fold + 1}: non-finite gradient "
                                     f"for parameter '{parameter}'; "
                                     f"training aborted")
        assert stacks == [None, None, None] + trained


def gender_fold(index, rows, width=6):
    """A fold's `rows` training rows, their class indices, and its 9 test
    rows and their class indices."""
    rng = np.random.default_rng(index)
    x = rng.normal(size=(rows, width))
    labels = (x[:, 0] + rng.normal(size=rows) > 0).astype(int)
    return x, labels, rng.normal(size=(9, width)), rng.integers(0, 2, size=9)


def gender_run(config, folds):
    """The RunContext of a cell without a sentiment mode whose fold i
    trains and tests on the rows of `folds[i]` (see `gender_fold`): each
    fold's training rows, then its test rows, in one base matrix whose row
    i is user i; fold i of the plan splits off these two blocks."""
    splits, start = [], 0
    for x, _, test, _ in folds:
        middle, end = start + len(x), start + len(x) + len(test)
        splits.append((range(start, middle), range(middle, end)))
        start = end
    return experiment.RunContext(
        config=config, plan=SimpleNamespace(k=len(folds), split=splits.__getitem__),
        base=np.concatenate([a for x, _, test, _ in folds for a in (x, test)]),
        labels=np.concatenate([a for _, y, _, y_test in folds
                               for a in (y, y_test)]),
        index_of={i: i for i in range(start)}, mats=None, lengths=None,
        source=None, polarity=None)


def test_gender_folds_of_one_shape_train_as_one_stack(monkeypatch, cores):
    # 65 and 66 rows in batches of 32 leave last batches of 1 and 2; each
    # shape is its own stack, and every fold ends as a lone run would
    config = small_experiment(epochs=(7, 3), batch_size=32)
    folds = [gender_fold(index, rows)
             for index, rows in enumerate((65, 66, 65, 66, 65))]
    trained, probs = [], {}
    train = experiment.train_gender

    def recording(score, seed):
        # the test probabilities each fold's score computes, in epoch order
        def scored(model, epoch):
            def predict_proba(*inputs):
                probs.setdefault(seed, []).append(model.predict_proba(*inputs))
                return probs[seed][-1]
            score(SimpleNamespace(predict_proba=predict_proba), epoch)
        return scored

    def recorded(*args, seeds, after_epoch, **kwargs):
        models = train(*args, seeds=seeds, **kwargs,
                       after_epoch=[recording(score, seed)
                                    for score, seed in zip(after_epoch, seeds)])
        trained.extend(zip(seeds, models))
        return models

    monkeypatch.setattr(experiment, "train_gender", recorded)
    # one process, so all five folds form one part whose stacks train here,
    # where the calls are recorded; a forked part's would be lost
    cores(1)
    columns = experiment._columns(config, procs.map_parts(
        experiment._train_folds(gender_run(config, folds), None, None)))
    seeds = [experiment._fold_seed(config.seed, index, 1)
             for index in range(len(folds))]
    assert [seed for seed, _ in trained] == [seeds[i] for i in (0, 2, 4, 1, 3)]
    members = dict(trained)
    for j, ((x, labels, test, y_test), seed) in enumerate(zip(folds, seeds)):
        alone_probs = []

        def after_epoch(model, epoch):
            if epoch in (3, 7):
                alone_probs.append(model.predict_proba(test).tobytes())

        alone = train_gender(x, [CLASSES[i] for i in labels],
                             config.train_config(7, seed),
                             dropout_rate=config.mlp_dropout,
                             after_epoch=after_epoch)
        member = members[seed]
        assert member.checksum() == alone.checksum()
        assert member.history == alone.history
        assert [p.tobytes() for p in probs[seed]] == alone_probs
        # the columns take the accuracies in fold order
        accuracy = {e: float((p.argmax(axis=1) == y_test).mean())
                    for e, p in zip((3, 7), probs[seed])}
        assert [col.fold_accuracies[j] for col in columns] == \
            [accuracy[7], accuracy[3]]
    assert [col.epochs for col in columns] == [7, 3]


@pytest.mark.parametrize("n_cores, fold", [(1, 3), (2, 2), (2, 4), (3, 3)])
def test_non_finite_gradient_in_a_later_stack_names_its_fold(cores, n_cores,
                                                             fold):
    # folds of 65 and 66 training rows make two stacks in a part; a failing
    # fold that is not its stack's first member, or whose stack is not its
    # part's first, is named as itself. At 1 core fold 4 is the second
    # member of the one part's 66-row stack; at 2 cores (parts 1-3, forked,
    # and 4-5, here) fold 3 is the second member of the forked part's
    # 65-row stack and fold 5 the second stack of the part trained here; at
    # 3 cores (parts 1-2, 3-4, 5) fold 4 is the second stack of a forked part
    config = small_experiment(epochs=(2,), batch_size=32)
    folds = [gender_fold(index, rows)
             for index, rows in enumerate((65, 66, 65, 66, 65))]
    x, *rest = folds[fold]
    folds[fold] = (np.full_like(x, np.nan), *rest)
    cores(n_cores)
    with pytest.raises(TrainingError) as caught:
        procs.map_parts(experiment._train_folds(
            gender_run(config, folds), None, None))
    assert str(caught.value) == (f"fold {fold + 1}: non-finite gradient for "
                                 f"parameter 'layer0.weights'; training "
                                 f"aborted")


def count_calls(monkeypatch, names):
    """Wrap `experiment.<name>` for each of `names`, the module names the
    benchmark tracer wraps too; returns the call counts."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(experiment, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    return calls


class TestRunGrid:
    def test_cells_share_the_prefix_and_match_single_runs(self, monkeypatch,
                                                          cores, small_dataset):
        config = small_experiment(z=0.05, smote=True, smote_k=2)
        calls = count_calls(monkeypatch, ("load_corpora", "train_skipgram",
                                          "train_sentiment"))
        # one process, so every fold's sentiment training is counted here
        cores(1)
        results = run_grid(config, small_dataset)
        # one model for each source mode without manual labels, one per fold
        # for each with them
        assert calls == {"load_corpora": 1, "train_skipgram": 1,
                         "train_sentiment": 2 + 2 * config.folds}
        assert [cell for cell, _ in results] == [
            (mode, layer) for mode in SOURCE_MODES for layer in GRID_LAYERS]
        for (mode, layer), report in results:
            cell = replace(config, source_mode=mode, sentiment_mode=layer)
            assert report.to_json() == run_experiment(cell, small_dataset).to_json()

    def test_frozen_cells_after_a_finetuned_cell_match_single_runs(
            self, small_dataset):
        # the cells of one source mode share each fold's sentiment model; a
        # finetuned cell trains a copy of its LSTM, so frozen cells that run
        # after it in the same fold read the model as trained
        cells = [small_experiment(sentiment_mode=mode)
                 for mode in ("finetuned_lstm", "frozen_lstm", "frozen_dense")]
        reports = experiment._run_cells(cells, small_dataset)
        for cell, report in zip(cells, reports):
            assert report.to_json() == run_experiment(cell, small_dataset).to_json()

    def test_cells_of_a_source_mode_share_its_model_wherever_they_are(
            self, monkeypatch, cores, small_dataset):
        # the cells are grouped by source mode, not by adjacency: the two
        # `entire` cells, apart in the list, read one sentiment model, and
        # the reports come back in the order of the cells
        cells = [small_experiment(source_mode=source_mode,
                                  sentiment_mode=mode, z=0.05)
                 for source_mode, mode in (("entire", "frozen_lstm"),
                                           ("high_similarity", "frozen_lstm"),
                                           ("entire", "finetuned_lstm"))]
        alone = [run_experiment(cell, small_dataset).to_json()
                 for cell in cells]
        calls = count_calls(monkeypatch, ("train_sentiment",))
        # one process, so every sentiment training is counted here
        cores(1)
        reports = experiment._run_cells(cells, small_dataset)
        assert calls == {"train_sentiment": 2}
        assert [report.to_json() for report in reports] == alone

    def test_bad_cell_fails_before_any_work(self, monkeypatch, small_dataset):
        # only the selection cells see z; the first cell would run fine
        calls = count_calls(monkeypatch, ("load_corpora", "train_skipgram",
                                          "train_sentiment"))
        with pytest.raises(ConfigError, match="z must be"):
            run_grid(small_experiment(z=1.5), small_dataset)
        assert calls == {}


def record_sentiment_training(monkeypatch):
    """Wrap `experiment.train_sentiment`, `experiment.sentiment_features`,
    `experiment.train_gender` and the plan `experiment._train_folds`
    splits; returns the (training sequences, model) of every sentiment
    training call and, for every fold whose gender model gathers its
    training data, in call order, the fold's [index, the model its
    features were read from, test user ids]."""
    trained, read_outs, folds = [], [], []
    train, read = experiment.train_sentiment, experiment.sentiment_features
    train_folds, train_gender = experiment._train_folds, experiment.train_gender
    gathered = {}   # by seed: the fold's entry of `folds`, its training rows

    def recorded(seqs, *args, **kwargs):
        model, curve = train(seqs, *args, **kwargs)
        trained.append((seqs, model))
        return model, curve

    def recorded_read(model, *args, **kwargs):
        features = read(model, *args, **kwargs)
        read_outs.extend((array, model) for array in features.values())
        return features

    def recorded_folds(run, readouts, cell):
        def split(index):
            train_ids, test_ids = run.plan.split(index)
            folds.append([index, None, list(test_ids)])
            gathered[experiment._fold_seed(run.config.seed, index, 1)] = (
                folds[-1], run.rows(train_ids))
            return train_ids, test_ids
        return train_folds(replace(run, plan=SimpleNamespace(k=run.plan.k,
                                                             split=split)),
                           readouts, cell)

    def recorded_gender(features, *args, seeds, **kwargs):
        # a fold's features were read from the model whose read-out rows
        # of the fold's training users end its feature rows
        for x, seed in zip(features, seeds):
            fold, rows = gathered[seed]
            fold[1] = next((model for array, model in read_outs
                            if np.array_equal(x[:, -array.shape[1]:],
                                              array[rows])), None)
        return train_gender(features, *args, seeds=seeds, **kwargs)

    monkeypatch.setattr(experiment, "train_sentiment", recorded)
    monkeypatch.setattr(experiment, "sentiment_features", recorded_read)
    monkeypatch.setattr(experiment, "_train_folds", recorded_folds)
    monkeypatch.setattr(experiment, "train_gender", recorded_gender)
    return trained, folds


def logged_models(caplog, source_mode) -> int:
    """The count of INFO lines reporting a trained sentiment model's
    held-out loss and accuracy."""
    return sum(1 for m in caplog.messages
               if m.startswith(f"sentiment model for {source_mode}, fold ")
               and "held-out loss" in m and "accuracy" in m)


class TestSentimentTraining:
    @pytest.mark.parametrize("source_mode", ["entire", "high_similarity"])
    def test_fold_independent_source_trains_once(self, monkeypatch, cores,
                                                 caplog, small_dataset,
                                                 source_mode):
        trained, folds = record_sentiment_training(monkeypatch)
        config = small_experiment(sentiment_mode="frozen_lstm",
                                  source_mode=source_mode, z=0.05)
        # one process: every fold's gender MLP gathers and trains here,
        # where the wrappers record its inputs; a forked part's would be
        # lost
        cores(1)
        with caplog.at_level("INFO", logger="sentprofile.experiment"):
            report = run_experiment(config, small_dataset)
        assert len(trained) == 1
        assert logged_models(caplog, source_mode) == 1
        (_, model), = trained
        assert [index for index, _, _ in folds] == list(range(config.folds))
        assert all(read is model for _, read, _ in folds)
        # the model is fold 1's: trained with the seed fold 1 has always used
        assert model.seed == experiment._fold_seed(config.seed, 0, 1)
        assert len(report.columns[0].fold_accuracies) == config.folds

    @pytest.mark.parametrize("source_mode", ["entire_plus_manual",
                                             "high_similarity_plus_manual"])
    def test_manual_source_trains_per_fold_without_test_labels(
            self, monkeypatch, cores, caplog, small_dataset, source_mode):
        trained, folds = record_sentiment_training(monkeypatch)
        sources = []
        build = experiment.sentiment_sources

        def recorded_sources(*args, **kwargs):
            sources.append(build(*args, **kwargs))
            return sources[-1]

        monkeypatch.setattr(experiment, "sentiment_sources", recorded_sources)
        config = small_experiment(sentiment_mode="frozen_lstm",
                                  source_mode=source_mode, z=0.05)
        # one process: each fold's model is trained, read and logged here,
        # where the wrappers record it
        cores(1)
        with caplog.at_level("INFO", logger="sentprofile.experiment"):
            run_experiment(config, small_dataset)
        assert len(trained) == len(folds) == config.folds
        assert logged_models(caplog, source_mode) == config.folds
        (source,) = [by_mode[source_mode] for by_mode in sources]
        ids, manual_seqs, _ = source.manual
        n_source = len(source.training_set([])[0])
        user_of = {id(seq): uid for uid, seq in zip(ids, manual_seqs)}
        for (_, read, test_ids), (seqs, model) in zip(folds, trained):
            assert read is model
            # the source rows, then the manual rows of the training users
            manual = [user_of[id(row)] for row in seqs[n_source:]]
            assert manual, "the fold trains on some manual labels"
            assert manual == [uid for uid in ids if uid not in test_ids]
        assert len({id(model) for _, model in trained}) == config.folds

    @pytest.mark.parametrize("n_cores", [1, 2])
    @pytest.mark.parametrize("source_mode", ["entire_plus_manual",
                                             "high_similarity_plus_manual"])
    def test_manual_source_folds_continue_from_one_shared_model(
            self, monkeypatch, cores, caplog, tmp_path, small_dataset,
            source_mode, n_cores):
        # past FOLD_EPOCHS sentiment epochs a manual source trains one
        # model on its source rows alone, here; every fold's model, here or
        # in a forked child, continues from it on the source rows and its
        # own training users' manual rows, and leaves it as it was
        log = tmp_path / "calls.pickle"
        runs, made = record_sentiment_calls(monkeypatch, log)
        config = small_experiment(sentiment_mode="frozen_lstm",
                                  source_mode=source_mode, z=0.05,
                                  sentiment_epochs=4)
        cores(n_cores)
        with caplog.at_level("INFO", logger="sentprofile.experiment"):
            run_experiment(config, small_dataset)
        (run,) = runs
        k = run.plan.k
        source_rows = [id(seq) for seq in run.source.training_set([])[0]]
        ids, manual_seqs, _ = run.source.manual
        user_of = {id(seq): uid for uid, seq in zip(ids, manual_seqs)}
        fold_of = {experiment._fold_seed(config.seed, index, 1): index
                   for index in range(k)}
        calls = read_calls(log)

        (shared,) = [call for call in calls if call["start"] is None]
        assert fold_of[shared["seed"]] == 0
        assert shared["epochs"] == 4 - experiment.FOLD_EPOCHS
        assert shared["rows"] == source_rows
        assert not set(shared["rows"]) & set(user_of)
        # the shared model, kept here, and its bytes when it was trained
        (model, trained_bytes), = made
        assert model.checksum() == trained_bytes

        folds = sorted((call for call in calls if call["start"] is not None),
                       key=lambda call: fold_of[call["seed"]])
        assert [fold_of[call["seed"]] for call in folds] == list(range(k))
        for index, call in enumerate(folds):
            test_ids = set(run.plan.split(index)[1])
            assert call["epochs"] == experiment.FOLD_EPOCHS
            assert call["rows"][:len(source_rows)] == source_rows
            assert [user_of[row] for row in call["rows"][len(source_rows):]] == [
                uid for uid in ids if uid not in test_ids]
            assert call["start"] == id(model)
            assert call["start_bytes"] == (trained_bytes, trained_bytes)
        assert sum(message.startswith(f"sentiment model for {source_mode}, "
                                      "shared by every fold: ")
                   for message in caplog.messages) == 1
        if n_cores == 1:
            assert logged_models(caplog, source_mode) == k

    def test_source_rows_short_of_a_polarity_train_every_fold_from_scratch(
            self, monkeypatch, tmp_path, small_dataset):
        # a selection that keeps one negative review leaves too few for a
        # shared model, but each fold's manual rows make up the count: every
        # fold trains all its epochs from scratch, to the bytes of a run
        # that trains no shared model at all
        mode = "high_similarity_plus_manual"
        build = experiment.sentiment_sources

        def one_negative(*args, **kwargs):
            sources = build(*args, **kwargs)
            source = sources[mode]
            negatives = [row for row in source.selected
                         if source.targets[row] == 0.0]
            source.selected = np.array([row for row in source.selected
                                        if source.targets[row] == 1.0
                                        or row == negatives[0]])
            return sources

        monkeypatch.setattr(experiment, "sentiment_sources", one_negative)
        log = tmp_path / "calls.pickle"
        runs, made = record_sentiment_calls(monkeypatch, log)
        config = small_experiment(sentiment_mode="polarity_features",
                                  source_mode=mode, z=0.05,
                                  sentiment_epochs=4)
        report = run_experiment(config, small_dataset).to_json()
        (run,) = runs
        targets = run.source.training_set([])[1]
        assert (targets == 0.0).sum() == 1 and (targets == 1.0).sum() >= 2
        calls = read_calls(log)
        assert made == []
        assert len(calls) == config.folds
        assert all(call["start"] is None and call["epochs"] == 4
                   for call in calls)
        monkeypatch.setattr(experiment, "FOLD_EPOCHS", 4)
        assert run_experiment(config, small_dataset).to_json() == report


def record_sentiment_calls(monkeypatch, log):
    """Wrap `experiment.train_sentiment` so that every call, in this
    process or in a forked child, appends to the file `log` its seed, its
    epochs, the ids of its sequences ("rows") and of its `start` (None
    without one) and the checksums of `start` before and after it; a
    forked child sees the objects it inherited under their ids here.
    Wraps `experiment._prepare_runs` and `experiment.shared_sentiment`
    too; returns the runs prepared and the (model, checksum when trained)
    of every shared model trained here."""
    train, shared = experiment.train_sentiment, experiment.shared_sentiment
    prepare = experiment._prepare_runs
    runs, made = [], []

    def recorded(seqs, targets, train_config, *args, start=None, **kwargs):
        before = None if start is None else start.checksum()
        model, curve = train(seqs, targets, train_config, *args, start=start,
                             **kwargs)
        call = {"seed": train_config.seed, "epochs": train_config.epochs,
                "rows": [id(seq) for seq in seqs],
                "start": None if start is None else id(start),
                "start_bytes": None if start is None else (before,
                                                           start.checksum())}
        # unbuffered, so each record is one append however processes mix
        with open(log, "ab", buffering=0) as fh:
            fh.write(pickle.dumps(call))
        return model, curve

    def recorded_shared(config, source):
        model = shared(config, source)
        if model is not None:
            made.append((model, model.checksum()))
        return model

    def recorded_prepare(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        runs.extend(prepared)
        return prepared

    monkeypatch.setattr(experiment, "train_sentiment", recorded)
    monkeypatch.setattr(experiment, "shared_sentiment", recorded_shared)
    monkeypatch.setattr(experiment, "_prepare_runs", recorded_prepare)
    return runs, made


def read_calls(log) -> list[dict]:
    """The records `record_sentiment_calls` appended to `log`."""
    calls = []
    with open(log, "rb") as fh:
        while True:
            try:
                calls.append(pickle.load(fh))
            except EOFError:
                return calls


def lstm_checksum(lstm, dtype=None) -> str:
    """SHA-256 over the LSTM's parameter names and bytes, each value cast
    to `dtype` first, if given."""
    digest = hashlib.sha256()
    for name, value in lstm.params().items():
        digest.update(name.encode())
        digest.update(value.astype(dtype or value.dtype).tobytes())
    return digest.hexdigest()


def test_composites_start_from_their_own_folds_lstm(monkeypatch, cores,
                                                    small_dataset):
    # the composites train after the last fold, when every fold's model is
    # trained; fold j's must still start from fold j's own LSTM, rounded to
    # the composite's float32
    trained, built = [], []
    train, build = experiment.train_sentiment, experiment.build_finetune_model

    def recorded(*args, **kwargs):
        model, curve = train(*args, **kwargs)
        trained.append(lstm_checksum(model.lstm, np.float32))
        return model, curve

    def recorded_build(model, *args, **kwargs):
        composite = build(model, *args, **kwargs)
        built.append(lstm_checksum(composite.lstm))
        return composite

    monkeypatch.setattr(experiment, "train_sentiment", recorded)
    monkeypatch.setattr(experiment, "build_finetune_model", recorded_build)
    config = small_experiment(sentiment_mode="finetuned_lstm",
                              source_mode="entire_plus_manual")
    # one process, so every model trained and every composite built is
    # recorded here
    cores(1)
    run_experiment(config, small_dataset)
    assert len(set(trained)) == config.folds
    assert built == trained


def test_frozen_cells_drop_each_folds_model_once_read(monkeypatch, cores,
                                                     small_dataset):
    # outside finetuned cells a fold's sentiment model is dropped once its
    # features are read, so none is alive when the gender models train
    models, alive = [], []
    train, train_folds = experiment.train_sentiment, experiment._train_folds

    def recorded(*args, **kwargs):
        model, curve = train(*args, **kwargs)
        models.append(weakref.ref(model))
        return model, curve

    def checked(run, readouts, cell):
        gc.collect()
        alive.append([ref() is not None for ref in models])
        return train_folds(run, readouts, cell)

    monkeypatch.setattr(experiment, "train_sentiment", recorded)
    monkeypatch.setattr(experiment, "_train_folds", checked)
    config = small_experiment(sentiment_mode="frozen_lstm",
                              source_mode="entire_plus_manual")
    # one process: a forked fold's model is never alive here
    cores(1)
    run_experiment(config, small_dataset)
    assert alive == [[False] * config.folds]


def check_after_prepares(monkeypatch, check):
    """Wrap `procs.map_parts` so that, after every prepare of a part of a
    gender cell, the garbage is collected and check(the part's cell) is
    recorded; returns the records, in order."""
    records = []
    map_parts = procs.map_parts

    def checked(part):
        def prepare(folds):
            train = part.prepare(folds)
            gc.collect()
            records.append(check(part.cell))
            return train
        return prepare

    def recorded(parts):
        return map_parts([replace(part, prepare=checked(part))
                          if part.cell and "/" in part.cell else part
                          for part in parts])

    monkeypatch.setattr(procs, "map_parts", recorded)
    return records


def test_grid_drops_each_folds_model_after_its_last_composite(
        monkeypatch, cores, small_dataset):
    # all of a grid's composites are prepared first, in cell order, each
    # source mode's after the previous mode's; a fold's model is dropped
    # as soon as the last composite that copies it is built, so every
    # model is gone before the first MLP part is prepared
    models = []
    train = experiment.train_sentiment

    def recorded(*args, **kwargs):
        model, curve = train(*args, **kwargs)
        models.append(weakref.ref(model))
        return model, curve

    monkeypatch.setattr(experiment, "train_sentiment", recorded)
    records = check_after_prepares(monkeypatch, lambda cell: (
        cell, [i for i, ref in enumerate(models) if ref() is not None]))
    config = small_experiment(z=0.05)
    k = config.folds
    # one process, so every model is trained, and kept alive, here
    cores(1)
    run_grid(config, small_dataset)
    # the models in training order: one each for `entire` and
    # `high_similarity`, then one per fold for each manual source
    assert len(models) == 2 + 2 * k
    model_of = ([0] * k + [1] * k + [2 + i for i in range(k)]
                + [2 + k + i for i in range(k)])
    composites = [f"{mode}/finetuned_lstm" for mode in SOURCE_MODES]
    expected = [(composites[j // k], sorted(set(model_of[j + 1:])))
                for j in range(len(model_of))]
    assert records[:len(expected)] == expected
    assert all(alive == [] for _, alive in records[len(expected):])
    # then the other 8 cells, one MLP part each
    assert len(records) == len(expected) + 8


def test_frozen_features_freed_once_their_last_mlp_part_is_prepared(
        monkeypatch, cores, small_dataset):
    # a manual source reads per-fold frozen features; the composites are
    # prepared first, one part per fold, beside all of them, then every
    # fold's states are dropped once the frozen_lstm cell's one part has
    # been prepared, and every fold's head activations once the
    # frozen_dense cell's has
    features = []
    read = experiment.sentiment_features

    def recorded(*args, **kwargs):
        by_mode = read(*args, **kwargs)
        features.extend(weakref.ref(value) for value in by_mode.values())
        return by_mode

    monkeypatch.setattr(experiment, "sentiment_features", recorded)
    records = check_after_prepares(monkeypatch, lambda cell: (
        cell.split("/")[1], sum(ref() is not None for ref in features)))
    cells = [small_experiment(sentiment_mode=mode,
                              source_mode="entire_plus_manual")
             for mode in GRID_LAYERS]
    k = cells[0].folds
    # one process, so every fold's features are read here
    cores(1)
    experiment._run_cells(cells, small_dataset)
    # one (n, H) state array and one (n, 1) head array per fold
    assert len(features) == 2 * k
    assert records == ([("finetuned_lstm", 2 * k)] * k
                       + [("frozen_lstm", k), ("frozen_dense", 0)])


@pytest.mark.parametrize("overrides", [
    {"sentiment_mode": "frozen_lstm"},
    {"sentiment_mode": "finetuned_lstm", "smote": True, "smote_k": 2},
    {"sentiment_mode": "polarity_features"},
])
def test_lstm_reads_only_float32_sequences(monkeypatch, small_dataset,
                                           tmp_path, overrides):
    # every sequence the pipeline makes is float32 (`doc_matrix`), so the
    # LSTM computes in float32; an upcast on the way, such as SMOTE's
    # float64 synthetic rows joining a float32 stack, would run it in
    # float64 without failing. Every other female user is left out, so
    # SMOTE has a minority to oversample
    from sentprofile.nn import LSTMLayer

    with open(small_dataset.users, encoding="utf-8") as fh:
        lines = fh.readlines()
    females = [line for line in lines if json.loads(line)["gender"] == "female"]
    users = tmp_path / "users.jsonl"
    users.write_text("".join(line for line in lines
                             if line not in females[::2]), encoding="utf-8")
    paths = replace(small_dataset, users=str(users), manual=None)
    dtypes = []
    forward = LSTMLayer.forward

    def recorded(self, x, *args, **kwargs):
        dtypes.append(np.asarray(x).dtype)
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(LSTMLayer, "forward", recorded)
    run_experiment(small_experiment(**overrides), paths)
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}


def test_cells_of_a_source_mode_read_its_models_after_a_cell_without(
        small_dataset):
    # a cell without a sentiment mode has no source; the cells after it in
    # the same source mode still read that mode's sentiment model
    cells = [small_experiment(sentiment_mode=mode)
             for mode in ("none", "frozen_lstm", "finetuned_lstm")]
    reports = experiment._run_cells(cells, small_dataset)
    for cell, report in zip(cells, reports):
        assert report.to_json() == run_experiment(cell, small_dataset).to_json()


def read_out_forwards(monkeypatch):
    """Wrap `experiment.extract_representations` and
    `experiment.polarity_features`; returns, per name, the count of LSTM
    forwards each call ran."""
    from sentprofile.nn import LSTMLayer

    forwards = {"extract_representations": [], "polarity_features": []}
    inside = []
    for name in forwards:
        def counted(*args, _name=name, _fn=getattr(experiment, name), **kwargs):
            forwards[_name].append(0)
            inside.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(experiment, name, counted)
    forward = LSTMLayer.forward

    def counted_forward(self, *args, **kwargs):
        if inside:
            forwards[inside[-1]][-1] += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(LSTMLayer, "forward", counted_forward)
    return forwards


class TestSentimentReadout:
    def test_one_read_out_per_shared_model(self, monkeypatch, small_dataset):
        # every fold of `entire` reads one model: one LSTM read-out over the
        # users serves both frozen layers, and one polarity scoring pass
        cells = [small_experiment(sentiment_mode=mode) for mode in
                 ("frozen_lstm", "frozen_dense", "polarity_features")]
        alone = [run_experiment(cell, small_dataset).to_json() for cell in cells]
        forwards = read_out_forwards(monkeypatch)
        reports = experiment._run_cells(cells, small_dataset)
        assert [report.to_json() for report in reports] == alone
        # fewer than 256 users: one forward per read-out
        assert forwards["extract_representations"] == [1]
        assert len(forwards["polarity_features"]) == 1
        assert forwards["polarity_features"][0] >= 1

    def test_grid_reads_each_model_once(self, monkeypatch, cores,
                                        small_dataset):
        # one read-out for each of the two shared models, one per fold for
        # each of the two manual sources' fold models
        config = small_experiment(z=0.05)
        forwards = read_out_forwards(monkeypatch)
        # one process, so every fold's read-out is counted here
        cores(1)
        run_grid(config, small_dataset)
        assert forwards["extract_representations"] == [1] * (2 + 2 * config.folds)
        assert forwards["polarity_features"] == []


def test_avg_vector_selection_targets_are_the_base_rows(monkeypatch,
                                                        small_dataset):
    # every kept user's averaged vector is computed once: under avg_vector
    # the selection reads the base rows instead of recomputing them, and
    # under tfidf no pass besides the selection's embeds a user
    _, docs, reviews, _ = experiment.load_corpora(small_dataset)
    embed_vector = experiment.doc_vector
    for representation, mode in (("avg_vector", "frozen_lstm"),
                                 ("tfidf", "polarity_features")):
        calls = Counter()

        def counted(doc, table):
            calls[getattr(doc, "user_id", None)] += 1
            return embed_vector(doc, table)

        monkeypatch.setattr(experiment, "doc_vector", counted)
        config = small_experiment(representation=representation,
                                  sentiment_mode=mode,
                                  source_mode="high_similarity", z=0.05)
        run, = experiment._prepare_runs([config], small_dataset)
        monkeypatch.undo()
        del calls[None]  # the reviews
        assert set(calls.values()) == {1}
        assert set(calls) == set(run.index_of)
        table = experiment.embedding_table(config, small_dataset, docs,
                                           reviews)
        kept = experiment.build_source_items(reviews, table, config.r)[0]
        want = select_source([embed_vector(review, table) for review in kept],
                             [embed_vector(doc, table) for doc in docs],
                             config.z)
        assert run.source.selected.tolist() == want.tolist()


def test_each_unembeddable_document_dropped_once(small_dataset, tmp_path,
                                                 caplog):
    # one user, one review and one manual sample the table cannot embed:
    # each warns once and has no row
    paths = with_unembeddable_documents(small_dataset, tmp_path)
    config = small_experiment(sentiment_mode="frozen_lstm",
                              source_mode="high_similarity_plus_manual",
                              z=0.05)
    with caplog.at_level("WARNING", logger="sentprofile"):
        run, = experiment._prepare_runs([config], paths)
    assert sorted(m for m in caplog.messages if m.startswith("dropping")) == [
        "dropping manual sample oov-manual: out of vocabulary",
        "dropping review oov-review: all tokens out of vocabulary",
        "dropping user oov-user: all tokens out of vocabulary"]
    assert UNEMBEDDABLE["users"] not in run.index_of
    assert len(run.index_of) == len(run.base) == len(run.mats)
    assert UNEMBEDDABLE["reviews"] not in run.source.ids
    assert len(run.source.ids) == len(run.source.seqs)
    manual_ids, manual_seqs, _ = run.source.manual
    assert UNEMBEDDABLE["manual"] not in manual_ids
    assert len(manual_ids) == len(manual_seqs)


@pytest.mark.parametrize("source_mode", ["entire_plus_manual",
                                         "high_similarity_plus_manual"])
def test_only_selection_embeds_review_vectors(monkeypatch, small_dataset,
                                              source_mode):
    # the reviews' averaged vectors serve similarity selection alone, and
    # the manual samples, which are never selected, get none
    calls = Counter()
    embed_vector = experiment.doc_vector

    def counted(doc, table):
        calls[type(doc).__name__] += 1
        return embed_vector(doc, table)

    monkeypatch.setattr(experiment, "doc_vector", counted)
    config = small_experiment(representation="tfidf",
                              sentiment_mode="frozen_lstm",
                              source_mode=source_mode, z=0.05)
    run, = experiment._prepare_runs([config], small_dataset)
    reviews = calls["SourceReview"]
    assert reviews == (len(run.source.seqs) if run.source.selected is not None
                       else 0)
    assert set(calls) <= {"SourceReview", "VirtualDocument"}


def hapax_dataset(tmp_path):
    """A corpus with one extra user, in the middle of the users file, whose
    every token falls under min_count, so it has a tfidf row but no
    embedding."""
    from sentprofile.synth import SynthConfig, generate_dataset, write_dataset

    dataset = generate_dataset(SynthConfig(n_users=40, n_reviews=60, seed=8,
                                           posts_per_user=(2, 3),
                                           tokens_per_post=(6, 10),
                                           review_tokens=(6, 14),
                                           n_topics=3, tokens_per_topic=10))
    out = tmp_path / "data"
    paths_map = write_dataset(dataset, out)
    users = paths_map["users"]
    lines = users.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(len(lines) // 2, json.dumps({
        "user_id": "hapax-user", "gender": "male",
        "posts": [["onlyonceword"]]}) + "\n")
    users.write_text("".join(lines), encoding="utf-8")
    return DataPaths(users=str(paths_map["users"]),
                     reviews=str(paths_map["reviews"]),
                     stopwords=str(paths_map["stopwords"]))


HAPAX_CONFIG = dict(representation="tfidf", sentiment_mode="frozen_lstm",
                    folds=2, min_count=2)


def test_tfidf_with_sentiment_drops_oov_users(tmp_path):
    # the pipeline must drop the hapax user instead of crashing
    report = run_experiment(small_experiment(**HAPAX_CONFIG),
                            hapax_dataset(tmp_path))
    assert len(report.columns[0].fold_accuracies) == 2


def test_tfidf_oov_drop_keeps_rows_aligned(tmp_path):
    # after the hapax user is dropped, row i of every per-user array still
    # belongs to the i-th kept user; the idf counts every loaded user
    from sentprofile.embed import doc_matrix, tfidf_representation

    paths = hapax_dataset(tmp_path)
    config = small_experiment(**HAPAX_CONFIG)
    run, = experiment._prepare_runs([config], paths)
    _, docs, reviews, _ = experiment.load_corpora(paths)
    table = experiment.embedding_table(config, paths, docs, reviews)
    tfidf, _ = tfidf_representation(docs)
    by_id = {doc.user_id: (row, doc) for row, doc in enumerate(docs)}
    assert 0 < by_id["hapax-user"][0] < len(docs) - 1
    assert "hapax-user" not in run.index_of
    assert list(run.index_of.values()) == list(range(len(docs) - 1))
    assert run.base.shape == (len(docs) - 1, tfidf.shape[1])
    for uid, i in run.index_of.items():
        row, doc = by_id[uid]
        assert run.base[i].tobytes() == tfidf[row].tobytes()
        assert run.labels[i] == CLASSES.index(doc.gender)
        seq = doc_matrix(doc, table, config.r)
        assert run.lengths[i] == len(seq)
        assert run.mats[i, :len(seq)].tobytes() == seq.tobytes()


def test_polarity_alone_drops_oov_users_without_the_matrix_stack(tmp_path,
                                                                  caplog):
    # nothing under polarity_features reads the (n, T, d) stack, so none
    # is built; the same users are dropped, with the same warnings, as
    # under a mode that stacks it
    paths = hapax_dataset(tmp_path)
    config = small_experiment(**HAPAX_CONFIG)
    users, docs, reviews, stopwords = experiment.load_corpora(paths)
    table = experiment.embedding_table(config, paths, docs, reviews)
    built, warned = [], []
    for modes in ({"polarity_features"}, {"frozen_lstm"}):
        caplog.clear()
        with caplog.at_level("WARNING", logger="sentprofile.experiment"):
            built.append(experiment.user_features(config, modes, users, docs,
                                                  table, stopwords))
        warned.append([m for m in caplog.messages
                       if m.startswith("dropping user")])
    (kept, base, mats, lengths, polarity), (stacked_kept, stacked_base,
                                            stacked_mats, _, _) = built
    assert mats is None and lengths is None and polarity is not None
    assert stacked_mats is not None
    assert warned == [["dropping user hapax-user: all tokens out of "
                       "vocabulary"]] * 2
    assert [d.user_id for d in kept] == [d.user_id for d in stacked_kept]
    assert base.tobytes() == stacked_base.tobytes()


def test_precomputed_embeddings_reused(small_dataset, tmp_path):
    from sentprofile.embed import save_embeddings
    from sentprofile.experiment import fit_embeddings, load_corpora

    config = small_experiment()
    _, docs, reviews, _ = load_corpora(small_dataset)
    table = fit_embeddings(config, docs, reviews)
    path = tmp_path / "emb.txt"
    save_embeddings(table, path)
    with_table = DataPaths(users=small_dataset.users,
                           reviews=small_dataset.reviews,
                           stopwords=small_dataset.stopwords,
                           embeddings=str(path))
    r1 = run_experiment(config, with_table)
    r2 = run_experiment(config, small_dataset)
    assert r1.columns[0].fold_accuracies == r2.columns[0].fold_accuracies


def test_target_matrices_own_only_their_columns():
    # documents of at most 3 tokens padded to r=300: the stacked matrices
    # must not keep the full padded stack alive as a view base
    from sentprofile.corpus import VirtualDocument

    table = make_table(("a", "b", "c"), dimension=4)
    docs = [VirtualDocument(user_id=f"u{i}", gender="male",
                            tokens=("a", "b", "c")[:i % 3 + 1])
            for i in range(6)]
    kept, _, mats, lengths, _ = experiment.user_features(
        small_experiment(r=300), {"frozen_lstm"}, [], docs, table)
    assert len(kept) == 6 and mats.shape == (6, 3, 4)
    assert list(lengths) == [1, 2, 3, 1, 2, 3]
    assert mats.base is None or mats.base.nbytes == mats.nbytes
