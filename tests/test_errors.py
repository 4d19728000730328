import inspect
import pickle

import pytest

from sentprofile import errors
from sentprofile.errors import PipelineError

# constructor arguments of every error class, and the attributes beyond
# the message each must keep
CASES = {
    "PipelineError": (("failed",), {}),
    "ConfigError": (("bad value",), {}),
    "DataError": (("bad data",), {}),
    "ParseError": (("not json", 7), {"line_number": 7}),
    "SchemaError": (("missing key", 3), {"line_number": 3}),
    "DuplicateKeyError": (("duplicate id",), {}),
    "EmptyDocumentError": (("u1",), {"user_id": "u1"}),
    "AllOovError": (("out of vocabulary",), {}),
    "EmptySelectionError": (("kept nothing",), {}),
    "FormatError": (("bad header", 1), {"line_number": 1}),
    "CheckpointError": (("bad checkpoint",), {}),
    "ShapeError": (("bad shape",), {}),
    "TrainingError": (("non-finite gradient", 2), {"member": 2}),
}


def test_every_error_class_has_a_case():
    assert set(CASES) == {name for name, cls in inspect.getmembers(
        errors, inspect.isclass) if issubclass(cls, PipelineError)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_error_survives_pickling(name):
    # an error raised in a forked fold reaches the parent pickled: it must
    # keep its class, its message and its attributes
    args, attributes = CASES[name]
    error = getattr(errors, name)(*args)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    for attribute, value in attributes.items():
        assert getattr(copy, attribute) == value


@pytest.mark.parametrize("name", ["ParseError", "SchemaError", "FormatError",
                                  "TrainingError"])
def test_optional_attribute_survives_pickling_unset(name):
    error = getattr(errors, name)("message")
    copy = pickle.loads(pickle.dumps(error))
    assert str(copy) == "message"
    assert copy.__dict__ == error.__dict__
