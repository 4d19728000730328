"""The benchmark in perfbench/ wraps program names from the outside
(`--trace 1`) and imports a few directly for its kernel runs. A refactor
that renames or moves one of them breaks the benchmark silently, so these
checks resolve every such name without installing the tracer."""

import ast
import importlib
import importlib.util
import inspect
import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sentprofile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the methods and module attributes Tracer.install wraps besides
# FUNCTION_SPANS: (module under sentprofile, dotted attribute)
WRAPPED = (
    ("resample", "_neighbor_table"),
    ("nn.layers", "LSTMLayer.forward"),
    ("nn.layers", "LSTMLayer.backward"),
    ("nn.optim", "Adam.step"),
    ("nn.optim", "SGD.step"),
    ("gender", "fit_softmax_classifier"),
    ("sentiment", "fit_softmax_classifier"),
    ("gender", "GenderModel.forward_batch"),
    ("sentiment", "FinetuneModel.forward_batch"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, dotted: str) -> bool:
    owner = importlib.import_module(f"sentprofile.{module_name}")
    *parents, name = dotted.split(".")
    for parent in parents:
        if not hasattr(owner, parent):
            return False
        owner = getattr(owner, parent)
    return hasattr(owner, name)


def test_function_spans_resolve():
    tracer = load_tracer()
    missing = [(module, attr) for module, attr in tracer.FUNCTION_SPANS
               if not hasattr(getattr(sentprofile, module), attr)]
    assert not missing


def test_wrapped_methods_resolve():
    assert [entry for entry in WRAPPED if not resolves(*entry)] == []


def test_counted_signatures_bind():
    # the tracer's epoch and eval-forward counters take these arguments
    # positionally or by name; a changed signature would only surface as a
    # TypeError under --trace 1
    from sentprofile import gender, sentiment

    for fit in (gender.fit_softmax_classifier, sentiment.fit_softmax_classifier):
        inspect.signature(fit).bind("model", "inputs", "labels", "config")
    for cls in (gender.GenderModel, sentiment.FinetuneModel):
        inspect.signature(cls.forward_batch).bind("model", "inputs",
                                                  training=False)


def test_benchmark_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("sentprofile")):
                imported += [(path.name, node.module, alias.name)
                             for alias in node.names]
    assert imported
    missing = [entry for entry in imported
               if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert not missing


def test_adam_takes_the_kernel_call_form():
    # perfbench/kernels.py times Adam in exactly this form, a composite's
    # named parameters and a dict of fresh gradient arrays, while `nn.fit`
    # steps one flat buffer; an optimizer that dropped the named form
    # would only fail under --trace 1
    from sentprofile.nn import Adam, LSTMLayer
    from sentprofile.sentiment import FinetuneModel

    rng = np.random.default_rng(0)
    params = FinetuneModel(LSTMLayer(4, 3, rng=rng), vec_dim=4).parameters()
    grads = {name: rng.normal(scale=1e-3, size=value.shape)
             for name, value in params.items()}
    before = {name: value.copy() for name, value in params.items()}
    optimizer = Adam(3e-3)
    for _ in range(3):
        optimizer.step(params, grads)
    assert all(not np.array_equal(value, before[name])
               for name, value in params.items())


def test_drop_warnings_keep_their_prefixes(small_dataset, tmp_path):
    # the tracer counts dropped inputs by their warnings' prefixes: one
    # unembeddable user, review and manual sample count once each
    from sentprofile import experiment

    from conftest import SMALL_CONFIG, with_unembeddable_documents

    counts = Counter()
    handler = load_tracer()._DropCounter(counts)
    logger = logging.getLogger("sentprofile")
    logger.addHandler(handler)
    try:
        experiment._prepare_runs(
            [experiment.ExperimentConfig(**dict(
                SMALL_CONFIG, sentiment_mode="frozen_lstm",
                source_mode="high_similarity_plus_manual", z=0.05))],
            with_unembeddable_documents(small_dataset, tmp_path))
    finally:
        logger.removeHandler(handler)
    assert counts == {"corpus.users_dropped": 1, "corpus.reviews_dropped": 1,
                      "corpus.manual_dropped": 1}


def test_polarity_scoring_runs_under_traced_name(monkeypatch, small_dataset):
    # the tracer times `experiment.polarity_features` as sentiment.polarity
    # and counts the LSTM forwards under it; scoring moved out from under
    # that name would read as zero there
    from sentprofile import experiment
    from sentprofile.nn import LSTMLayer

    from conftest import SMALL_CONFIG

    score, forward = experiment.polarity_features, LSTMLayer.forward
    forwards_per_call = []
    depth = [0]

    def counted_score(*args, **kwargs):
        forwards_per_call.append(0)
        depth[0] += 1
        try:
            return score(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_forward(self, *args, **kwargs):
        if depth[0]:
            forwards_per_call[-1] += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(experiment, "polarity_features", counted_score)
    monkeypatch.setattr(LSTMLayer, "forward", counted_forward)
    config = experiment.ExperimentConfig(
        **dict(SMALL_CONFIG, sentiment_mode="polarity_features"))
    experiment.run_experiment(config, small_dataset)
    # one scoring pass for the one model every fold of `entire` reads
    assert len(forwards_per_call) == 1
    assert min(forwards_per_call) >= 1


def test_selection_counters_match_the_report(monkeypatch, small_dataset):
    # the tracer wraps `experiment.select_source` and counts the length of
    # its first argument as domainsel.total and the length of its result as
    # domainsel.kept; both must be the counts the report's selection holds
    from sentprofile import experiment

    from conftest import SMALL_CONFIG

    tracer = load_tracer().Tracer()
    counted = []

    def selected(result, source, *args, **kwargs):
        counted.append({"kept": len(result), "total": len(source)})
    monkeypatch.setattr(experiment, "select_source", tracer._span(
        "domainsel.select", experiment.select_source, selected))
    config = experiment.ExperimentConfig(
        **dict(SMALL_CONFIG, sentiment_mode="frozen_lstm",
               source_mode="high_similarity", z=0.05))
    report = experiment.run_experiment(config, small_dataset)
    assert tracer.calls("domainsel.select") == 1
    assert counted == [{"kept": report.selection["kept"],
                        "total": report.selection["total"]}]
    assert 1 <= report.selection["kept"] <= report.selection["total"]


def test_document_embedding_runs_under_traced_names(monkeypatch,
                                                   small_dataset):
    # the tracer times `experiment.doc_matrix` and `sentiment.doc_matrix`
    # as embed.doc_repr; embedding moved out from under those names would
    # read as zero there
    from sentprofile import experiment, sentiment

    from conftest import SMALL_CONFIG

    calls = {"experiment": 0, "sentiment": 0}
    for name, module in (("experiment", experiment), ("sentiment", sentiment)):
        def counted(*args, _embed=module.doc_matrix, _name=name, **kwargs):
            calls[_name] += 1
            return _embed(*args, **kwargs)
        monkeypatch.setattr(module, "doc_matrix", counted)
    config = experiment.ExperimentConfig(
        **dict(SMALL_CONFIG, sentiment_mode="polarity_features",
               source_mode="high_similarity_plus_manual", z=0.05))
    experiment.run_experiment(config, small_dataset)
    assert min(calls.values()) >= 1


@pytest.mark.parametrize("mode", ["frozen_lstm", "finetuned_lstm"])
def test_only_gender_training_counts_epochs(monkeypatch, small_dataset, mode):
    # the tracer reads gender.epochs_trained off these two names; sentiment
    # training shares their loop (`nn.fit`) but must not pass through them.
    # The gender MLPs of a cell's folds train as stacks (one
    # `experiment.train_gender` call each), which count once; the
    # composites train one per fold
    from sentprofile import experiment, gender, sentiment

    from conftest import SMALL_CONFIG

    tracer = load_tracer().Tracer()
    seen, stacks = [], []

    def epochs(model, inputs, labels, config, *args, **kwargs):
        seen.append(config.epochs)
    for module in (gender, sentiment):
        monkeypatch.setattr(module, "fit_softmax_classifier", tracer._count(
            module.fit_softmax_classifier, epochs))
    monkeypatch.setattr(experiment, "train_gender", tracer._count(
        experiment.train_gender,
        lambda *args, seeds, **kwargs: stacks.append(len(seeds))))
    config = experiment.ExperimentConfig(
        **dict(SMALL_CONFIG, sentiment_mode=mode, epochs=(2, 3)))
    # one process: a composite trained in a forked fold counts its epochs
    # there, not here
    experiment.run_experiment(config, small_dataset, jobs=1)
    if mode == "finetuned_lstm":
        assert stacks == [] and seen == [max(config.epochs)] * config.folds
    else:
        assert sum(stacks) == config.folds
        assert seen == [max(config.epochs)] * len(stacks)


def test_gender_training_runs_under_traced_name(monkeypatch, small_dataset):
    # the tracer times `experiment.train_gender` as gender.train; a training
    # forward of a gender MLP, stacked or not, moved out from under that
    # name would not count there
    from sentprofile import experiment, gender

    from conftest import SMALL_CONFIG

    train, forward = experiment.train_gender, gender.GenderModel.forward_batch
    depth = [0]
    forwards = []  # (training, inside train_gender)

    def traced_train(*args, **kwargs):
        depth[0] += 1
        try:
            return train(*args, **kwargs)
        finally:
            depth[0] -= 1

    def recorded_forward(self, inputs, training=False):
        forwards.append((training, depth[0] > 0))
        return forward(self, inputs, training=training)

    monkeypatch.setattr(experiment, "train_gender", traced_train)
    monkeypatch.setattr(gender.GenderModel, "forward_batch", recorded_forward)
    config = experiment.ExperimentConfig(
        **dict(SMALL_CONFIG, sentiment_mode="frozen_lstm", epochs=(2, 3)))
    experiment.run_experiment(config, small_dataset)
    inside = [within for training, within in forwards if training]
    assert inside and all(inside)


def test_sentiment_partitions_share_one_stack(monkeypatch, polarity_table):
    # train_sentiment stacks its items once; the rows `nn.fit` trains on and
    # the held-out rows each epoch scores are views of that one stack
    from sentprofile import sentiment
    from sentprofile.nn import TrainConfig

    from test_sentiment import marker_items

    fit, forward_batch = sentiment.fit, sentiment.SentimentModel.forward_batch
    trained, held = [], []

    def captured_fit(model, inputs, *args, **kwargs):
        trained.append(inputs)
        return fit(model, inputs, *args, **kwargs)

    def captured_forward(self, inputs, training=False):
        if not training:
            held.append(inputs)
        return forward_batch(self, inputs, training=training)

    monkeypatch.setattr(sentiment, "fit", captured_fit)
    monkeypatch.setattr(sentiment.SentimentModel, "forward_batch",
                        captured_forward)
    seqs, targets = marker_items(polarity_table, n=40)
    _, curve = sentiment.train_sentiment(
        seqs, targets, TrainConfig(epochs=2, batch_size=8, seed=0),
        hidden_size=3)
    assert len(trained) == 1 and len(held) == len(curve) == 2
    [(mats, lengths)], = trained
    stack = mats.base
    assert stack is not None and len(stack) == len(seqs)
    assert len(mats) + len(held[0][0]) == len(stack)
    for held_mats, held_lengths in held:
        assert held_mats.base is stack and held_lengths.base is lengths.base
        assert np.shares_memory(stack, mats)
        assert np.shares_memory(stack, held_mats)
