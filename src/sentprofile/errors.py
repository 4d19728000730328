"""Exception hierarchy shared across the pipeline.

The CLI maps ConfigError to exit code 2, DataError (with all its
subclasses) to exit code 3 and every other PipelineError (a TrainingError,
a ShapeError, or a child process that exited without a result) to exit
code 1.
"""

import copyreg


class PipelineError(Exception):
    """Base class for all errors raised by this package.

    Every one pickles to its own class, message and attributes, so an
    error raised in a forked worker reaches the parent unchanged.

    `member` is the position of the failing fold in its part of a fork
    schedule (see `procs.map_parts`), or of the failing model among those
    trained in lockstep (see `nn.fit`); None when the error does not
    concern one of several."""

    member: int | None = None

    def __reduce__(self):
        # the finished message and attributes, set without calling
        # __init__ again: several subclasses format their arguments into
        # the message there
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(PipelineError):
    """Invalid configuration value or flag combination."""


class DataError(PipelineError):
    """Problem with input data (files, schemas, content)."""


class ParseError(DataError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(DataError):
    """A parsed record violates the expected schema."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DuplicateKeyError(DataError):
    """An identifier that must be unique appeared twice."""


class EmptyDocumentError(DataError):
    """Cleaning removed every token of a document."""

    def __init__(self, user_id: str):
        super().__init__(f"all tokens of user {user_id!r} were removed by cleaning")
        self.user_id = user_id


class AllOovError(DataError):
    """No token of a document is in the embedding vocabulary."""


class EmptySelectionError(DataError):
    """Similarity selection kept no source items."""


class FormatError(DataError):
    """Malformed serialized artifact (embedding file, checkpoint, report)."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CheckpointError(DataError):
    """Model checkpoint is unreadable, corrupt or of an unsupported version."""


class ShapeError(PipelineError):
    """Arrays with incompatible shapes were combined."""


class TrainingError(PipelineError):
    """Training aborted (non-finite gradients or similar), in the model at
    position `member` among those trained in lockstep, if given."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member
