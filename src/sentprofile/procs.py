"""The one fork scheduler, `map_parts`: the only code of the package that
forks, reads the core count or names a part's process and errors. The
experiment's fold schedules (see `experiment._run_cells`) and the
skip-gram's two shards (see `embed.train_skipgram`) both run through it.

Forked, not spawned, so a child reads the parent's arrays and models
copy-on-write instead of receiving them pickled; the program starts no
thread of its own, nor imports multiprocessing. A child is made by
`os.fork`, answers down its own pipe with one pickled outcome, ends in
`os._exit` and is reaped by `os.waitpid`, after SIGKILL to stop it.
"""

import logging
import os
import pickle
import signal
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, PipelineError, TrainingError

logger = logging.getLogger(__name__)


@dataclass
class Part:
    """Folds that train in one process (see `map_parts`); `unit` names
    them (`fold`, or `skip-gram shard`), numbered from 1. prepare(folds)
    runs in `map_parts`' process and returns the zero-argument call that
    trains `folds`, here or in a forked child, and gives their results in
    fold order. `cell`, when set, names the cell in the part's errors."""
    folds: list[int]
    prepare: Callable
    cell: str | None = None
    unit: str = "fold"


def _name(part: Part, folds: list[int]) -> str:
    """`folds` of `part` as its errors and children name them: `fold 2`,
    `folds 1-3`, after `part.cell` and a comma when it is set."""
    name = (f"{part.unit} {folds[0] + 1}" if len(folds) == 1
            else f"{part.unit}s {folds[0] + 1}-{folds[-1] + 1}")
    return name if part.cell is None else f"{part.cell}, {name}"


def _in_part(exc: PipelineError, part: Part) -> PipelineError:
    """`exc` pointing at the fold at position `exc.member` of `part` (its
    first by default), and at its cell, under its error category (and
    hence its exit code)."""
    where = _name(part, [part.folds[exc.member or 0]])
    for category in (ConfigError, TrainingError, DataError):
        if isinstance(exc, category):
            return category(f"{where}: {exc}")
    return PipelineError(f"{where}: {exc}")


def map_parts(parts: list[Part]) -> list:
    """Train `parts`, each a `Part` of contiguous folds in fold order,
    and return their results, part after part.

    For each part in turn, its prepare runs here, once, on the part's
    folds; the call it returns gives the part's results. It must leave
    this process's state as it is, unless it is the last part's, which
    always trains here (the skip-gram's second shard trains its tables
    in place).
    A lone part (a single MLP cell's gender call) is cut into one
    contiguous part per core, larger first (folds 1-3 and 4-5 on two
    cores), each prepared on its own folds. Up to `jobs` parts train at
    once, one per core of the affinity mask (one on a platform without
    `os.sched_getaffinity`) and at most one per part: every `jobs`-th
    part and the last here, so this process trains too, the others in
    forked children. Which part trains where depends on the part count
    and `jobs` alone. Once it has forked a part while `jobs` - 1 children
    were busy, this process waits for the oldest, so it prepares each
    part while the children train and no core idles while it waits.

    A PipelineError, from a prepare or from the call it returned, or a
    child that exits without a result, names the fold at position
    `exc.member` of its part, and the part's cell (see `_in_part`). Of
    several failing parts the first in `parts` is named, as in one
    process: an error here is raised only after the children of the
    parts before it. Within a part the first error decides; for stacked
    MLPs that is the part's first failing stack and step. On any error
    every child still running is stopped."""
    jobs = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    if len(parts) == 1:
        (part,) = parts
        parts = [replace(part, folds=chunk.tolist()) for chunk
                 in np.array_split(part.folds, min(jobs, len(part.folds)))]
    jobs = min(jobs, len(parts))
    results, busy = [None] * len(parts), {}
    try:
        for number, part in enumerate(parts):
            here = number % jobs == jobs - 1 or number == len(parts) - 1
            try:
                train = part.prepare(part.folds)
                if here:
                    results[number] = train()
                else:
                    busy[number] = (*_fork(train, part), part)
            except PipelineError as exc:
                while busy:
                    _collect(results, busy)
                raise _in_part(exc, part) from exc
            del train
            if len(busy) == jobs:
                _collect(results, busy)
        while busy:
            _collect(results, busy)
    finally:
        for pid, reader, _ in busy.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
    return [result for part in results for result in part]


def _fork(task, part: Part):
    """(pid, reader): a child that writes ("ok", task()), or ("error", the
    error task() raised), down the pipe it returns (see `_collect`) and
    exits with 0; or else writes nothing and exits with SystemExit's code,
    or with 1 after `Process <name of part>:` and the traceback."""
    reader, writer = os.pipe()
    sys.stdout.flush()  # else the child prints this process's buffer too
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        os.close(writer)
        return pid, reader
    code = 1
    try:
        os.close(reader)
        try:
            outcome = ("ok", task())
        except Exception as exc:
            if not isinstance(exc, PipelineError):
                # a defect, not a pipeline error: its traceback stays here
                logger.exception("%s failed", _name(part, part.folds))
            outcome = ("error", exc)
        with open(writer, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))  # all the bytes or none
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    except BaseException:
        sys.stderr.write(f"Process {_name(part, part.folds)}:\n")
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _collect(results: list, busy: dict) -> None:
    """Read to its end the pipe of the oldest child in `busy` (part
    numbers to (pid, reader, part)); only then drop and reap it. Store its
    result in `results`, or raise the error it sent, or a PipelineError
    if it sent no whole result, named after its fold (see `_in_part`)."""
    number = min(busy)
    pid, reader, part = busy[number]
    data = open(reader, "rb", closefd=False).read()
    del busy[number]
    os.close(reader)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        kind, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        kind, value = "error", None
    if kind == "ok":
        results[number] = value
        return
    if value is None:
        value = PipelineError(f"its process exited with code {code} "
                              f"and no result")
    if isinstance(value, PipelineError):
        raise _in_part(value, part) from value
    raise value
