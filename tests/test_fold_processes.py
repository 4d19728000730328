"""Folds trained in forked processes (`jobs` > 1) give the reports, errors
and process table of a run in one process."""

import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sentprofile import experiment
from sentprofile.errors import (ConfigError, DataError, PipelineError,
                                TrainingError)
from sentprofile.experiment import SENTIMENT_MODES, run_experiment, run_grid

from conftest import SMALL_CONFIG
from test_experiment import small_experiment


def count_forks(monkeypatch) -> Counter:
    """The folds `_map_folds` hands to a forked child, counted here."""
    forks = Counter()
    fork = experiment._fork

    def counted(task, index):
        forks[index] += 1
        return fork(task, index)

    monkeypatch.setattr(experiment, "_fork", counted)
    return forks


@pytest.mark.parametrize("source_mode", ["entire", "entire_plus_manual"])
@pytest.mark.parametrize("mode", SENTIMENT_MODES)
def test_report_bytes_do_not_depend_on_jobs(monkeypatch, small_dataset, mode,
                                            source_mode):
    config = small_experiment(sentiment_mode=mode, source_mode=source_mode,
                              smote=True, smote_k=2, epochs=(2, 3))
    alone = run_experiment(config, small_dataset, jobs=1).to_json()
    forks = count_forks(monkeypatch)
    assert run_experiment(config, small_dataset, jobs=2).to_json() == alone
    # the composites, and the fold models of a manual source, are the
    # independent folds; at jobs=2 of 3 folds only the first goes to a child
    forked = (mode == "finetuned_lstm") + (source_mode == "entire_plus_manual"
                                           and mode != "none")
    assert forks == ({0: forked} if forked else {})
    assert multiprocessing.active_children() == []


def test_grid_bytes_do_not_depend_on_jobs(monkeypatch, small_dataset):
    config = small_experiment(z=0.05, smote=True, smote_k=2)
    alone = [(cell, report.to_json())
             for cell, report in run_grid(config, small_dataset, jobs=1)]
    forks = count_forks(monkeypatch)
    assert [(cell, report.to_json()) for cell, report
            in run_grid(config, small_dataset, jobs=2)] == alone
    assert forks[0] >= 1


def poisoned_finetune(monkeypatch, config, fold, delay=0.0, delayed=None):
    """Make `train_finetune` turn the base rows of fold `fold` (0-based)
    to NaN, and sleep `delay` seconds first in fold `delayed`."""
    finetune = experiment.train_finetune
    seeds = [experiment._fold_seed(config.seed, index, 1)
             for index in range(config.folds)]

    def poisoned(model, vecs, mats, lengths, labels, train_config, **kwargs):
        if train_config.seed == seeds[fold]:
            vecs = np.full_like(vecs, np.nan)
        if delayed is not None and train_config.seed == seeds[delayed]:
            time.sleep(delay)
        return finetune(model, vecs, mats, lengths, labels, train_config,
                        **kwargs)

    monkeypatch.setattr(experiment, "train_finetune", poisoned)


def test_child_error_names_its_own_fold(monkeypatch, small_dataset):
    # fold 1's composite always trains in a child; its error reaches this
    # process under the category and message of a run in one process,
    # naming fold 1 although this process has moved on to later folds
    config = small_experiment(sentiment_mode="finetuned_lstm")
    poisoned_finetune(monkeypatch, config, fold=0)
    errors = {}
    for jobs in (1, 2):
        with pytest.raises(TrainingError) as caught:
            run_experiment(config, small_dataset, jobs=jobs)
        errors[jobs] = (type(caught.value), str(caught.value))
    assert errors[2] == errors[1] == (
        TrainingError, "fold 1: non-finite gradient for parameter "
                       "'mlp.layer0.weights'; training aborted")
    assert multiprocessing.active_children() == []


def test_parent_error_waits_for_the_earlier_child(monkeypatch, small_dataset):
    # fold 2, trained here, fails while fold 1's child still trains; the
    # child's fold comes first, so its result is read before fold 2's
    # error is raised, and no child is left behind
    config = small_experiment(sentiment_mode="finetuned_lstm")
    poisoned_finetune(monkeypatch, config, fold=1, delay=2.0, delayed=0)
    forks = count_forks(monkeypatch)
    with pytest.raises(TrainingError, match="^fold 2: non-finite gradient"):
        run_experiment(config, small_dataset, jobs=2)
    assert forks == {0: 1}
    assert multiprocessing.active_children() == []


def test_first_failing_fold_is_named_whatever_the_jobs(monkeypatch,
                                                        small_dataset):
    # fold 1 (a child at jobs=2) fails after fold 2 (trained here) has
    # failed; as in one process, the error names fold 1
    config = small_experiment(sentiment_mode="finetuned_lstm")
    finetune = experiment.train_finetune
    seeds = [experiment._fold_seed(config.seed, index, 1) for index in (0, 1)]

    def failing(model, vecs, mats, lengths, labels, train_config, **kwargs):
        if train_config.seed == seeds[0]:
            time.sleep(1.0)
            raise TrainingError("fold model diverged")
        if train_config.seed == seeds[1]:
            raise DataError("no usable row")
        return finetune(model, vecs, mats, lengths, labels, train_config,
                        **kwargs)

    monkeypatch.setattr(experiment, "train_finetune", failing)
    for jobs in (1, 2):
        with pytest.raises(TrainingError, match="^fold 1: fold model diverged$"):
            run_experiment(config, small_dataset, jobs=jobs)
    assert multiprocessing.active_children() == []


def test_child_error_stops_the_children_after_it():
    # fold 1's child fails while fold 2's sleeps; fold 2 is stopped, not
    # waited for
    def prepare(index):
        def task():
            if index == 0:
                raise DataError("no usable item")
            time.sleep(60.0 if index == 1 else 0.0)
            return index
        return task

    started = time.monotonic()
    with pytest.raises(DataError, match="^fold 1: no usable item$"):
        experiment._map_folds(prepare, 5, 3)
    assert time.monotonic() - started < 30.0
    assert multiprocessing.active_children() == []


def test_child_that_exits_without_a_result_names_its_fold():
    parent = os.getpid()

    def prepare(index):
        def task():
            if os.getpid() != parent:
                os._exit(3)
            return index
        return task

    with pytest.raises(PipelineError, match="^fold 1: its process exited "
                                            "with code 3 and no result$"):
        experiment._map_folds(prepare, 2, 2)
    assert multiprocessing.active_children() == []


def test_sentiment_error_in_a_child_names_its_fold(monkeypatch, small_dataset):
    # a manual source trains fold 1's sentiment model in a child
    config = small_experiment(sentiment_mode="frozen_lstm",
                              source_mode="entire_plus_manual")
    train = experiment.train_sentiment
    first = experiment._fold_seed(config.seed, 0, 1)

    def failing(seqs, targets, train_config, *args, **kwargs):
        if train_config.seed == first:
            raise DataError("no usable item")
        return train(seqs, targets, train_config, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_sentiment", failing)
    forks = count_forks(monkeypatch)
    with pytest.raises(DataError) as caught:
        run_experiment(config, small_dataset, jobs=2)
    assert str(caught.value) == "fold 1: no usable item"
    assert forks[0] == 1
    assert multiprocessing.active_children() == []


def test_one_job_forks_nothing(monkeypatch, small_dataset):
    forks = count_forks(monkeypatch)
    run_experiment(small_experiment(sentiment_mode="finetuned_lstm",
                                    source_mode="entire_plus_manual"),
                   small_dataset, jobs=1)
    assert forks == {}


def test_jobs_below_one_rejected(small_dataset):
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_experiment(small_experiment(), small_dataset, jobs=0)


@pytest.mark.parametrize("jobs", [2, 4])
def test_map_folds_keeps_fold_order(jobs):
    # folds prepared in order here, finishing out of order in up to
    # jobs - 1 children (more than the cores at 4) and here; the results
    # come in fold order, and every jobs-th fold and the last trained here
    prepared, parent = [], os.getpid()

    def prepare(index):
        prepared.append(index)

        def task():
            time.sleep(0.01 * ((index * 7) % 4))
            return index * index, os.getpid() == parent
        return task

    results = experiment._map_folds(prepare, 7, jobs)
    assert results == [(i * i, i % jobs == jobs - 1 or i == 6)
                       for i in range(7)]
    assert prepared == list(range(7))
    assert multiprocessing.active_children() == []


def test_run_without_independent_folds_imports_no_multiprocessing(
        small_dataset):
    # a shared sentiment model and stacked MLPs leave nothing to fork, so
    # such a run neither forks nor pays for importing multiprocessing
    script = (
        "import sys\n"
        "from sentprofile.experiment import DataPaths, ExperimentConfig, "
        "run_experiment\n"
        f"config = ExperimentConfig(**{dict(SMALL_CONFIG)!r}, "
        "sentiment_mode='frozen_lstm', smote=True, smote_k=2)\n"
        f"run_experiment(config, DataPaths(**{vars(small_dataset)!r}), jobs=2)\n"
        "assert 'multiprocessing' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
