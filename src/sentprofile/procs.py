"""Forked child processes, and the core count that decides whether to
fork at all. The skip-gram shards (`embed.train_skipgram`) and the fold
schedule (`experiment._map_folds`) both fork through here.

Forked, not spawned, so a child reads the parent's arrays and models
copy-on-write instead of receiving them pickled; the program starts no
thread of its own. multiprocessing is imported only by `fork`, so a run
that forks nothing does not pay for it.
"""

import logging
import os

from .errors import ConfigError, DataError, PipelineError, TrainingError

logger = logging.getLogger(__name__)


def core_count() -> int:
    """The number of cores in this process's affinity mask; 1 on a
    platform without `os.sched_getaffinity`."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


def fork(task, name: str):
    """(process, reader): a forked child named `name` that sends ("ok",
    task()), or ("error", the error task() raised), down the pipe it
    returns. Hand both to `receive`, or to `stop` if the result is no
    longer wanted."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def run():
        try:
            outcome = ("ok", task())
        except Exception as exc:
            if not isinstance(exc, PipelineError):
                # a defect, not a pipeline error: its traceback stays here
                logger.exception("%s failed", name)
            outcome = ("error", exc)
        writer.send(outcome)

    process = context.Process(target=run, name=name)
    process.start()
    writer.close()
    return process, reader


def receive(process, reader):
    """What the child of `fork` sent, once it has exited; raises the error
    it sent instead, or a PipelineError if it exited without a result. If
    the wait itself is interrupted, the child is stopped."""
    try:
        kind, value = reader.recv()
    except EOFError:
        kind, value = "error", None
    except BaseException:
        stop(process, reader)
        raise
    reader.close()
    process.join()
    if kind == "ok":
        return value
    if value is None:
        raise PipelineError(f"its process exited with code "
                            f"{process.exitcode} and no result")
    raise value


def stop(process, reader) -> None:
    """Kill the child of `fork`, unless it has been joined, and join it."""
    process.kill()
    process.join()
    reader.close()


def renamed(exc: PipelineError, where: str) -> PipelineError:
    """`exc` prefixed with `where`, under its error category (and hence
    its exit code)."""
    for category in (ConfigError, TrainingError, DataError):
        if isinstance(exc, category):
            return category(f"{where}: {exc}")
    return PipelineError(f"{where}: {exc}")
