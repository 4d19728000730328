"""Folds and skip-gram shards trained in forked processes (more than one
core in the affinity mask) give the tables, reports, errors and process
table of a run in one process."""

import ast
import os
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sentprofile import embed, experiment, procs
from sentprofile.errors import DataError, PipelineError, TrainingError
from sentprofile.experiment import (
    SENTIMENT_MODES,
    SOURCE_MODES,
    run_experiment,
    run_grid,
)

from conftest import SMALL_CONFIG, assert_no_children
from test_experiment import small_experiment


def count_forks(monkeypatch, key=lambda part: part.folds[0],
                unit="fold") -> Counter:
    """The parts of `unit`s (folds, not skip-gram shards, by default) that
    `procs.map_parts` hands to a forked child, counted here by key(part),
    by default their first fold."""
    forks = Counter()
    fork = procs._fork

    def counted(task, part):
        if part.unit == unit:
            forks[key(part)] += 1
        return fork(task, part)

    monkeypatch.setattr(procs, "_fork", counted)
    return forks


@pytest.mark.parametrize("source_mode", ["entire", "entire_plus_manual"])
@pytest.mark.parametrize("mode", SENTIMENT_MODES)
def test_report_bytes_do_not_depend_on_jobs(monkeypatch, cores, small_dataset,
                                            mode, source_mode):
    config = small_experiment(sentiment_mode=mode, source_mode=source_mode,
                              smote=True, smote_k=2, epochs=(2, 3))
    cores(1)
    alone = run_experiment(config, small_dataset).to_json()
    forks = count_forks(monkeypatch)
    cores(2)
    assert run_experiment(config, small_dataset).to_json() == alone
    # the gender models of every mode (the MLP stack of folds 1 and 2, or
    # fold 1's composite) and the fold models of a manual source fork their
    # first part; at 2 cores of 3 folds that part is the only forked one
    forked = 1 + (source_mode == "entire_plus_manual" and mode != "none")
    assert forks == {0: forked}
    assert_no_children()


def test_grid_bytes_do_not_depend_on_jobs(monkeypatch, cores, small_dataset):
    config = small_experiment(z=0.05, smote=True, smote_k=2)
    cores(1)
    alone = [(cell, report.to_json())
             for cell, report in run_grid(config, small_dataset)]
    forks = count_forks(monkeypatch, key=lambda part: part.cell)
    cores(2)
    assert [(cell, report.to_json()) for cell, report
            in run_grid(config, small_dataset)] == alone
    # two calls, every other part forked. The sentiment call: one part for
    # each of `entire` and `high_similarity`, then one per fold for each
    # manual source (8 parts, 4 forked). The gender call: the 12
    # composites of the four finetuned cells, one after another (6
    # forked), then the 8 MLP cells, each one part, frozen_lstm then
    # frozen_dense for each source mode (4 forked)
    finetuned = {"entire/finetuned_lstm": 2,
                 "high_similarity/finetuned_lstm": 1,
                 "entire_plus_manual/finetuned_lstm": 2,
                 "high_similarity_plus_manual/finetuned_lstm": 1}
    assert forks == {"entire": 1, "entire_plus_manual": 2,
                     "high_similarity_plus_manual": 1, **finetuned,
                     **{f"{mode}/frozen_lstm": 1 for mode in SOURCE_MODES}}
    assert sum(finetuned.values()) == 6
    assert_no_children()


def test_mlp_report_bytes_at_three_cores(monkeypatch, cores, small_dataset):
    # 5 folds at 3 cores split the MLP folds into parts 1-2 and 3-4, each a
    # stack in a child, and 5, trained here
    config = small_experiment(sentiment_mode="frozen_dense", folds=5,
                              smote=True, smote_k=2, epochs=(2, 3))
    cores(1)
    alone = run_experiment(config, small_dataset).to_json()
    forks = count_forks(monkeypatch)
    cores(3)
    assert run_experiment(config, small_dataset).to_json() == alone
    assert forks == {0: 1, 2: 1}
    assert_no_children()


def test_grid_bytes_at_three_cores(monkeypatch, cores, small_dataset):
    config = small_experiment(z=0.05, smote=True, smote_k=2)
    cores(1)
    alone = [(cell, report.to_json())
             for cell, report in run_grid(config, small_dataset)]
    forks = count_forks(monkeypatch,
                        key=lambda part: (part.cell, part.folds[0]))
    cores(3)
    assert [(cell, report.to_json()) for cell, report
            in run_grid(config, small_dataset)] == alone
    # the gender call at 3 cores: the 12 composites, one fold each, in
    # whole cells, so folds 1 and 2 fork in every finetuned cell; then the
    # 8 MLP cells, each one part of folds 1-3, of which the 13th, 14th,
    # 16th, 17th and 19th of the call's 20 parts fork
    assert Counter({key: count for key, count in forks.items()
                    if "/" in key[0]}) == Counter(
        [(f"{mode}/finetuned_lstm", fold) for mode in SOURCE_MODES
         for fold in (0, 1)]
        + [(cell, 0) for cell in ("entire/frozen_lstm", "entire/frozen_dense",
                                  "high_similarity/frozen_dense",
                                  "entire_plus_manual/frozen_lstm",
                                  "high_similarity_plus_manual/frozen_lstm")])
    assert_no_children()


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


def test_child_error_names_its_own_fold(monkeypatch, cores, small_dataset):
    # at 2 cores fold 1's composite trains in a child; its error reaches
    # this process under the category and message of a run in one
    # process, naming fold 1 although this process has moved on to later
    # folds
    config = small_experiment(sentiment_mode="finetuned_lstm")
    poisoned_finetune(monkeypatch, config, fold=0)
    errors = {}
    for count in (1, 2):
        cores(count)
        with pytest.raises(TrainingError) as caught:
            run_experiment(config, small_dataset)
        errors[count] = (type(caught.value), str(caught.value))
    assert errors[2] == errors[1] == (
        TrainingError, "fold 1: non-finite gradient for parameter "
                       "'mlp.layer0.weights'; training aborted")
    assert_no_children()


def test_parent_error_waits_for_the_earlier_child(monkeypatch, cores,
                                                   small_dataset):
    # fold 2, trained here, fails while fold 1's child still trains; the
    # child's fold comes first, so its result is read before fold 2's
    # error is raised, and no child is left behind
    config = small_experiment(sentiment_mode="finetuned_lstm")
    poisoned_finetune(monkeypatch, config, fold=1, delay=2.0, delayed=0)
    forks = count_forks(monkeypatch)
    cores(2)
    with pytest.raises(TrainingError, match="^fold 2: non-finite gradient"):
        run_experiment(config, small_dataset)
    assert forks == {0: 1}
    assert_no_children()


def test_first_failing_fold_is_named_whatever_the_jobs(monkeypatch, cores,
                                                        small_dataset):
    # fold 1 (a child at 2 cores) fails after fold 2 (trained here) has
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
    for count in (1, 2):
        cores(count)
        with pytest.raises(TrainingError, match="^fold 1: fold model diverged$"):
            run_experiment(config, small_dataset)
    assert_no_children()


def poisoned_composites(monkeypatch, poisoned, delayed=None, delay=0.0):
    """Make the composites that `build_finetune_model` builds in the
    calls numbered `poisoned` (0-based, in the order their parts are
    prepared) train on NaN base rows, and the one of call `delayed` sleep
    `delay` seconds first; returns the numbers so far, which a new run
    clears. A grid prepares its composites in cell order, then fold
    order."""
    build, finetune = experiment.build_finetune_model, experiment.train_finetune
    built = []

    def counted(*args, **kwargs):
        model = build(*args, **kwargs)
        model.test_call = len(built)
        built.append(model.test_call)
        return model

    def poisoned_finetune(model, vecs, *args, **kwargs):
        if model.test_call == delayed:
            time.sleep(delay)
        if model.test_call in poisoned:
            vecs = np.full_like(vecs, np.nan)
        return finetune(model, vecs, *args, **kwargs)

    monkeypatch.setattr(experiment, "build_finetune_model", counted)
    monkeypatch.setattr(experiment, "train_finetune", poisoned_finetune)
    return built


NON_FINITE = ("non-finite gradient for parameter 'mlp.layer0.weights'; "
              "training aborted")


def test_grid_error_names_its_cell(monkeypatch, cores, small_dataset):
    # fold 2 of the last finetuned cell, the 11th of the grid's 12
    # composites (a child at 2 cores), fails; the error names the cell and
    # the fold, under the category of a run in one process
    config = small_experiment(z=0.05)
    built = poisoned_composites(monkeypatch, poisoned={10})
    errors = {}
    for count in (1, 2):
        built.clear()
        cores(count)
        with pytest.raises(PipelineError) as caught:
            run_grid(config, small_dataset)
        errors[count] = (type(caught.value), str(caught.value))
    assert errors[2] == errors[1] == (
        TrainingError, f"high_similarity_plus_manual/finetuned_lstm, fold 2: "
                       f"{NON_FINITE}")
    assert_no_children()


def test_grid_mlp_error_names_its_cell(monkeypatch, cores, small_dataset):
    # fold 2 of `high_similarity/frozen_lstm`, an MLP cell that is one part
    # (forked at 2 cores), reads NaN features; the error names the cell and
    # the fold at its position in the part, under the category of a run in
    # one process
    config = small_experiment(z=0.05)
    readouts = experiment._sentiment_readouts

    def poisoned(runs, named):
        by_mode = readouts(runs, named)
        fold = by_mode["high_similarity"][1]
        fold["frozen_lstm"] = np.full_like(fold["frozen_lstm"], np.nan)
        return by_mode

    monkeypatch.setattr(experiment, "_sentiment_readouts", poisoned)
    forks = count_forks(monkeypatch, key=lambda part: part.cell)
    errors = {}
    for count in (1, 2):
        cores(count)
        with pytest.raises(PipelineError) as caught:
            run_grid(config, small_dataset)
        errors[count] = (type(caught.value), str(caught.value))
    assert errors[2] == errors[1] == (
        TrainingError, "high_similarity/frozen_lstm, fold 2: non-finite "
                       "gradient for parameter 'layer0.weights'; training "
                       "aborted")
    assert forks["high_similarity/frozen_lstm"] == 1
    assert_no_children()


def test_grid_names_the_first_failing_part_of_its_schedule(
        monkeypatch, cores, small_dataset):
    # fold 3 of the first finetuned cell (a child at 2 cores) fails after
    # fold 1 of the next cell (trained here) has failed; as in one
    # process, the error names the earlier part of the schedule
    config = small_experiment(z=0.05)
    built = poisoned_composites(monkeypatch, poisoned={2, 3}, delayed=2,
                                delay=1.0)
    for count in (1, 2):
        built.clear()
        cores(count)
        with pytest.raises(TrainingError) as caught:
            run_grid(config, small_dataset)
        assert str(caught.value) == f"entire/finetuned_lstm, fold 3: {NON_FINITE}"
    assert_no_children()


def test_grid_sentiment_error_names_its_source_mode(monkeypatch, cores,
                                                    small_dataset):
    # a sentiment model serves every cell of its source mode, so a grid's
    # error in one names the source mode; `entire` trains the first model
    # with fold 1's seed
    config = small_experiment(z=0.05)
    train = experiment.train_sentiment
    first = experiment._fold_seed(config.seed, 0, 1)

    def failing(seqs, targets, train_config, *args, **kwargs):
        if train_config.seed == first:
            raise DataError("no usable item")
        return train(seqs, targets, train_config, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_sentiment", failing)
    for count in (1, 2):
        cores(count)
        with pytest.raises(DataError, match="^entire, fold 1: no usable item$"):
            run_grid(config, small_dataset)
    assert_no_children()


def test_child_error_stops_the_children_after_it(cores):
    # fold 1's child fails while fold 2's sleeps; fold 2 is stopped, not
    # waited for
    def prepare(folds):
        (index,) = folds

        def task():
            if index == 0:
                raise DataError("no usable item")
            time.sleep(60.0 if index == 1 else 0.0)
            return [index]
        return task

    cores(3)
    started = time.monotonic()
    with pytest.raises(DataError, match="^fold 1: no usable item$"):
        procs.map_parts([procs.Part([index], prepare) for index in range(5)])
    assert time.monotonic() - started < 30.0
    assert_no_children()


def test_child_that_exits_without_a_result_names_its_fold(cores):
    parent = os.getpid()

    def prepare(folds):
        def task():
            if os.getpid() != parent:
                os._exit(3)
            return folds
        return task

    cores(2)
    with pytest.raises(PipelineError, match="^fold 1: its process exited "
                                            "with code 3 and no result$"):
        procs.map_parts([procs.Part([0], prepare), procs.Part([1], prepare)])
    assert_no_children()


@pytest.mark.parametrize("failure, code", [("unpicklable", 1),
                                           ("SystemExit", 5),
                                           ("KeyboardInterrupt", 1)])
def test_child_that_cannot_answer_exits_with_its_code(cores, capfd, failure,
                                                      code):
    # fold 1's child returns what pickle cannot write, or raises past
    # Exception; it writes no result and exits with SystemExit's code, or
    # with 1 after its name and the traceback on stderr. Nothing it raises
    # unwinds into this process's frames
    parent = os.getpid()

    def prepare(folds):
        def task():
            if os.getpid() != parent:
                if failure == "unpicklable":
                    return [lambda: None]
                raise (SystemExit(5) if failure == "SystemExit"
                       else KeyboardInterrupt())
            return folds
        return task

    cores(2)
    with pytest.raises(PipelineError, match=f"^fold 1: its process exited "
                                            f"with code {code} and no "
                                            f"result$"):
        procs.map_parts([procs.Part([0], prepare), procs.Part([1], prepare)])
    assert os.getpid() == parent
    assert_no_children()
    err = capfd.readouterr().err
    if code == 5:
        assert err == ""
    else:
        assert err.startswith("Process fold 1:\nTraceback (most recent call "
                              "last):\n")
        assert ("pickle" if failure == "unpicklable"
                else "KeyboardInterrupt") in err.splitlines()[-1]


@pytest.mark.parametrize("failure", [None, "child", "here"])
def test_map_parts_leaves_no_file_descriptor(cores, failure):
    # on success, on an error in fold 1's child, and on a defect here while
    # that child still trains (stopped, not waited for), every pipe of the
    # run is closed and every child reaped
    parent = os.getpid()

    def prepare(folds):
        def task():
            if os.getpid() != parent:
                if failure == "child":
                    raise DataError("no usable item")
                time.sleep(60.0 if failure == "here" else 0.0)
            elif failure == "here":
                raise RuntimeError("a defect")
            return folds
        return task

    cores(2)
    before, started = os.listdir("/proc/self/fd"), time.monotonic()
    parts = [procs.Part([index], prepare) for index in range(3)]
    if failure is None:
        assert procs.map_parts(parts) == [0, 1, 2]
    else:
        with pytest.raises((DataError, RuntimeError),
                           match="^(fold 1: no usable item|a defect)$"):
            procs.map_parts(parts)
    assert time.monotonic() - started < 30.0
    assert os.listdir("/proc/self/fd") == before
    assert_no_children()


def test_text_printed_before_a_fork_appears_once():
    # stdout to a pipe is block-buffered (PYTHONUNBUFFERED unset); this
    # process's buffer is flushed before each fork, so no child prints it
    # again when it exits
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from sentprofile import procs\n"
        "print('before the run')\n"
        "procs.map_parts([procs.Part([index], lambda folds: lambda: folds)\n"
        "                 for index in range(4)])\n")
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(procs.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "before the run\n"), (
        done.stderr)


def test_sentiment_error_in_a_child_names_its_fold(monkeypatch, cores,
                                                    small_dataset):
    # at 2 cores a manual source trains fold 1's sentiment model in a child
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
    cores(2)
    with pytest.raises(DataError) as caught:
        run_experiment(config, small_dataset)
    assert str(caught.value) == "fold 1: no usable item"
    assert forks[0] == 1
    assert_no_children()


@pytest.mark.parametrize("source_mode, mode", [
    ("entire_plus_manual", "finetuned_lstm"),
    ("high_similarity_plus_manual", "polarity_features")])
def test_shared_sentiment_bytes_do_not_depend_on_cores(
        monkeypatch, cores, small_dataset, source_mode, mode):
    # past FOLD_EPOCHS sentiment epochs a manual source trains its shared
    # model in this process, in fold 1's prepare, before that part forks;
    # the fold models continue from it wherever they train
    config = small_experiment(sentiment_mode=mode, source_mode=source_mode,
                              z=0.05, sentiment_epochs=4)
    forks = count_forks(monkeypatch, key=lambda part: part.cell)
    reports = {}
    for count in (1, 2, 3):
        cores(count)
        reports[count] = run_experiment(config, small_dataset).to_json()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    reports["no affinity"] = run_experiment(config, small_dataset).to_json()
    assert len(set(reports.values())) == 1
    # each of the two schedules forks one part at 2 cores and two at 3:
    # of the fold models, then of the composites or the cut MLP cell
    assert forks == {None: 6}
    assert_no_children()


def test_one_job_forks_nothing(monkeypatch, cores, small_dataset):
    forks = count_forks(monkeypatch)
    cores(1)
    run_experiment(small_experiment(sentiment_mode="finetuned_lstm",
                                    source_mode="entire_plus_manual"),
                   small_dataset)
    assert forks == {}


def test_platform_without_affinity_runs_in_one_process(monkeypatch, cores,
                                                       small_dataset):
    # without os.sched_getaffinity (macOS, Windows) every fold trains here,
    # to the bytes of a one-core run, even where folds could be forked
    config = small_experiment(sentiment_mode="finetuned_lstm",
                              source_mode="entire_plus_manual")
    cores(1)
    one_core = run_experiment(config, small_dataset).to_json()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    forks = count_forks(monkeypatch)
    assert run_experiment(config, small_dataset).to_json() == one_core
    assert forks == {}


@pytest.mark.parametrize("n_cores, folds, jobs", [(2, 7, 2), (4, 7, 4),
                                                  (8, 3, 3)],
                         ids=["2", "4", "8"])
def test_map_folds_keeps_fold_order(cores, n_cores, folds, jobs):
    # one-fold parts prepared in order here, finishing out of order in
    # children (perhaps more than the host's cores) and here, jobs being
    # the core count but at most one per part; this process prepares and
    # trains beside at most jobs - 1 children. The results come in fold
    # order, and every jobs-th part and the last trained here: at 8 cores
    # and 3 folds, folds 1 and 2 fork and fold 3 trains here
    cores(n_cores)
    prepared, children, parent = [], [], os.getpid()
    # this process's children, exited ones included until they are reaped
    listed = Path(f"/proc/self/task/{parent}/children")
    # a forked task waits for one byte of this pipe; the task trained here
    # writes one per part forked since the last such task, after counting
    # the children, so the first round's jobs - 1 children are all alive
    # when it counts them, however fast they would finish
    waiting, release = os.pipe()

    def prepare(folds):
        (index,) = folds
        prepared.append(index)
        children.append(len(listed.read_text().split()))

        def task():
            if os.getpid() == parent:
                children.append(len(listed.read_text().split()))
                os.write(release, bytes(index % jobs))
            else:
                os.read(waiting, 1)
            time.sleep(0.01 * ((index * 7) % 4))
            return [(index * index, os.getpid() == parent)]
        return task

    try:
        results = procs.map_parts([procs.Part([i], prepare)
                                   for i in range(folds)])
    finally:
        os.close(waiting)
        os.close(release)
    assert results == [(i * i, i % jobs == jobs - 1 or i == folds - 1)
                       for i in range(folds)]
    assert prepared == list(range(folds))
    assert max(children) == jobs - 1
    assert_no_children()


def test_run_without_independent_folds_imports_no_multiprocessing(
        small_dataset):
    # on one core every part, here the MLP stack of all three folds, trains
    # in this process, so the run forks nothing. On two cores it forks
    # three children, the first skip-gram shard of each of the 2 epochs and
    # the stack of folds 1-2, and still imports no multiprocessing
    script = (
        "import os, sys\n"
        "from sentprofile.experiment import DataPaths, ExperimentConfig, "
        "run_experiment\n"
        f"config = ExperimentConfig(**{dict(SMALL_CONFIG)!r}, "
        "sentiment_mode='frozen_lstm', smote=True, smote_k=2)\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "for cores in ({0}, {0, 1}):\n"
        "    os.sched_getaffinity = lambda pid: cores\n"
        f"    run_experiment(config, DataPaths(**{vars(small_dataset)!r}))\n"
        "    assert 'multiprocessing' not in sys.modules, cores\n"
        "    print(len(forks))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "3"]


def test_map_folds_trains_each_part_in_one_process(cores):
    # every part is prepared once, in order, here; each trained group of
    # folds, a given part or, from a lone part, one contiguous cut per
    # core (the larger first), goes to one process: the last here, the
    # others each to a child. The results come in fold order
    prepared, parent = [], os.getpid()

    def prepare(folds):
        prepared.append(tuple(folds))
        return partial(train, folds)

    def train(values):
        return [(value, tuple(values), os.getpid()) for value in values]

    for n_cores, parts, trained in [
            (2, [[0, 1, 2], [3, 4]], [(0, 1, 2), (3, 4)]),
            (2, [[0, 1, 2, 3, 4]], [(0, 1, 2), (3, 4)]),
            (3, [[0, 1, 2, 3, 4]], [(0, 1), (2, 3), (4,)])]:
        cores(n_cores)
        prepared.clear()
        results = procs.map_parts([procs.Part(folds, prepare)
                                   for folds in parts])
        assert [value for value, _, _ in results] == list(range(5))
        assert prepared == trained
        where = {group: pid for _, group, pid in results}
        assert list(where) == trained
        assert where[trained[-1]] == parent
        assert len(set(where.values())) == len(trained)
        assert_no_children()


@pytest.mark.parametrize("n_cores", [1, 2, 3])
def test_train_folds_gives_one_part_per_mlp_cell(monkeypatch, cores,
                                                 small_dataset, n_cores):
    # whatever the core count, a cell's MLP folds are one part; only
    # `procs.map_parts` cuts a lone part across cores
    train_folds, given = experiment._train_folds, []

    def recorded(*args):
        parts = train_folds(*args)
        given.append([part.folds for part in parts])
        return parts

    monkeypatch.setattr(experiment, "_train_folds", recorded)
    cores(n_cores)
    run_experiment(small_experiment(sentiment_mode="frozen_dense", folds=5),
                   small_dataset)
    assert given == [[[0, 1, 2, 3, 4]]]


@pytest.mark.parametrize("n_cores", [1, 2])
@pytest.mark.parametrize("failing", [(1, None), (None, 1), (None, 4)],
                         ids=["prepare-2", "train-2", "train-5"])
def test_error_in_a_part_names_its_own_fold(cores, n_cores, failing):
    # a fold that fails while its part is prepared, or in the call the
    # prepare returned, is named by its position in the part (`member`),
    # whether the part trains here or in a child, and never twice or by
    # the part's number
    prepare_fails, member_fails = failing

    def prepare(folds):
        for position, index in enumerate(folds):
            if index == prepare_fails:
                exc = DataError("no usable row")
                exc.member = position
                raise exc
        return partial(train, folds)

    def train(values):
        if member_fails in values:
            raise TrainingError("diverged", member=values.index(member_fails))
        return values

    cores(n_cores)
    with pytest.raises(PipelineError) as caught:
        procs.map_parts([procs.Part([0, 1, 2], prepare),
                         procs.Part([3, 4], prepare)])
    fold = (prepare_fails if member_fails is None else member_fails) + 1
    assert (type(caught.value), str(caught.value)) == (
        (DataError, f"fold {fold}: no usable row") if member_fails is None
        else (TrainingError, f"fold {fold}: diverged"))
    assert_no_children()


@pytest.mark.parametrize("n_cores", [1, 2, 3])
@pytest.mark.parametrize("fold", [2, 4], ids=["fold-3", "fold-5"])
def test_oversampling_error_in_a_later_fold_names_its_fold(
        monkeypatch, cores, small_dataset, n_cores, fold):
    # a lone MLP cell's prepare oversamples its folds here; a failure in a
    # later fold is named as that fold, by its position in its part: at 2
    # cores fold 3 is the third of the forked part (folds 1-3) and fold 5
    # the second of the part trained here (folds 4-5), at 3 cores each is
    # the first of its part
    config = small_experiment(sentiment_mode="frozen_lstm", folds=5,
                              smote=True)
    oversample = experiment.smote
    failing = experiment._fold_seed(config.seed, fold, 1)

    def checked(*args):
        if args[-1].seed == failing:
            raise DataError("no minority row to oversample")
        return oversample(*args)

    monkeypatch.setattr(experiment, "smote", checked)
    cores(n_cores)
    with pytest.raises(PipelineError) as caught:
        run_experiment(config, small_dataset)
    assert (type(caught.value), str(caught.value)) == (
        DataError, f"fold {fold + 1}: no minority row to oversample")
    assert_no_children()


def test_skipgram_bytes_do_not_depend_on_cores(monkeypatch, cores,
                                               small_dataset):
    # the skip-gram's two shards train side by side from two cores on, one
    # after the other on one core or without os.sched_getaffinity; the
    # table, and so the report, keeps its bytes
    config = small_experiment(sentiment_mode="frozen_lstm")
    _, docs, reviews, _ = experiment.load_corpora(small_dataset)
    forks = count_forks(monkeypatch, unit="skip-gram shard")
    outputs, shard_forks = set(), []
    for n_cores in (1, 2, 3, None):
        if n_cores is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            cores(n_cores)
        forks.clear()
        table = experiment.fit_embeddings(config, docs, reviews)
        outputs.add((b"".join(vector.tobytes() for _, vector in table.items()),
                     run_experiment(config, small_dataset).to_json()))
        shard_forks.append(forks[0])
    assert len(outputs) == 1
    # one child per epoch of each of the two fits, from two cores on
    assert shard_forks == [0, 2 * config.embed_epochs,
                           2 * config.embed_epochs, 0]
    assert_no_children()


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_skipgram_shard_child_error_names_the_shard(monkeypatch, cores,
                                                    small_dataset, failure):
    # the first shard's child fails, by an error or by exiting without a
    # result; the run's error names that shard, not a fold
    parent, train_shard = os.getpid(), embed._train_shard

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "exits":
                os._exit(3)
            raise TrainingError("diverged")
        return train_shard(*args, **kwargs)

    monkeypatch.setattr(embed, "_train_shard", failing)
    cores(2)
    with pytest.raises(PipelineError) as caught:
        run_experiment(small_experiment(sentiment_mode="frozen_lstm"),
                       small_dataset)
    assert (type(caught.value), str(caught.value)) == (
        (TrainingError, "skip-gram shard 1: diverged") if failure == "raises"
        else (PipelineError, "skip-gram shard 1: its process exited with "
                             "code 3 and no result"))
    assert_no_children()


@pytest.mark.parametrize("n_cores", [1, 2, 3, None],
                         ids=["1", "2", "3", "no-affinity"])
def test_skipgram_error_names_the_first_failing_shard(monkeypatch, cores,
                                                      n_cores):
    # a shard that fails, in this process or in the first shard's child,
    # is named on every core count; of two failing shards the first one's
    # error is raised, as in one process, once its child has been waited for
    train_shard, failing = embed._train_shard, set()

    def checked(*args, rng, **kwargs):
        # the shard's generator is seeded from (seed, epoch, shard index)
        if rng.bit_generator.seed_seq.entropy[2] + 1 in failing:
            raise TrainingError("diverged")
        return train_shard(*args, rng=rng, **kwargs)

    monkeypatch.setattr(embed, "_train_shard", checked)
    if n_cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        cores(n_cores)
    for failing_shards, named in [({1}, 1), ({2}, 2), ({1, 2}, 1)]:
        failing.clear()
        failing.update(failing_shards)
        with pytest.raises(TrainingError) as caught:
            embed.train_skipgram([["a", "b"], ["b", "a"]],
                                 embed.EmbedConfig(dimension=2, min_count=1))
        assert str(caught.value) == f"skip-gram shard {named}: diverged"
        assert_no_children()


def test_only_procs_forks_or_reads_the_core_count():
    # the fork scheduler is the one place that forks or reads the affinity
    # mask; every other module schedules through `procs.map_parts`. No
    # module, `procs` included, imports multiprocessing
    package = Path(procs.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        scheduler = path.name == "procs.py" and path.parent == package
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                offenders.append((path.name, node.lineno, "multiprocessing"))
            if (not scheduler and isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ("fork", "sched_getaffinity")):
                offenders.append((path.name, node.lineno, f"os.{node.attr}"))
    assert offenders == []
