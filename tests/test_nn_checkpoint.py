import numpy as np
import pytest

from sentprofile.errors import CheckpointError
from sentprofile.gender import GenderModel
from sentprofile.sentiment import FinetuneModel, SentimentModel
from sentprofile.nn import (
    load_model,
    read_checkpoint,
    save_model,
    write_checkpoint,
)


def small_model(seed=0):
    return GenderModel(input_dim=3, hidden=(4, 3), dropout_rate=0.3, seed=seed)


def test_round_trip_forward_bitwise(tmp_path):
    model = small_model(5)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    x = np.random.default_rng(1).normal(size=(6, 3))
    assert np.array_equal(model.predict_proba(x), loaded.predict_proba(x))
    for name, value in model.parameters().items():
        assert np.array_equal(value, loaded.parameters()[name])


def test_truncated_file_fails_checksum(tmp_path):
    model = small_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CheckpointError, match="checksum|truncated"):
        load_model(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    model = small_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_model(path)


def test_unsupported_version(tmp_path):
    import hashlib
    import struct

    model = small_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    # bump the version byte and re-sign so only the version check trips
    blob[4:5] = struct.pack("<B", 9)
    body = bytes(blob[:-32])
    blob[-32:] = hashlib.sha256(body).digest()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 9"):
        load_model(path)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"oops" * 30)
    with pytest.raises(CheckpointError):
        load_model(path)


def test_removed_network_kind_rejected(tmp_path):
    # bare layer stacks are no longer a checkpoint kind of their own
    path = tmp_path / "network.bin"
    model = small_model()
    write_checkpoint(path, {"model_kind": "network", "layers": [], "seed": 0},
                     model.parameters())
    with pytest.raises(CheckpointError, match="unknown model kind 'network'"):
        load_model(path)


def test_raw_checkpoint_round_trip(tmp_path):
    path = tmp_path / "raw.bin"
    params = {"w": np.arange(6, dtype=np.float64).reshape(2, 3),
              "b": np.array([1.5])}
    write_checkpoint(path, {"kind": "test", "seed": 3}, params)
    meta, loaded = read_checkpoint(path)
    assert meta == {"kind": "test", "seed": 3}
    assert list(loaded) == ["w", "b"]
    assert np.array_equal(loaded["w"], params["w"])


def small_sentiment_model():
    return SentimentModel(input_dim=3, hidden_size=2, dropout_rate=0.1, seed=4)


def rewritten(tmp_path, model, meta_changes=(), params=None):
    """`model`'s checkpoint with header fields replaced (a value of None
    drops the field) and optionally other parameters, written anew."""
    meta = model.checkpoint_meta()
    meta["model_kind"] = model.checkpoint_kind
    for name, value in dict(meta_changes).items():
        if value is None:
            meta.pop(name)
        else:
            meta[name] = value
    path = tmp_path / "edited.bin"
    write_checkpoint(path, meta, model.parameters() if params is None else params)
    return path


@pytest.mark.parametrize("make, field, value", [
    (small_model, "input_dim", None),
    (small_model, "hidden", None),
    (small_model, "dropout_rate", None),
    (small_model, "input_dim", "3"),
    (small_model, "input_dim", True),
    (small_model, "input_dim", 0),
    (small_model, "hidden", [4]),
    (small_model, "hidden", [4, 3.5]),
    (small_model, "dropout_rate", 1.5),
    (small_model, "seed", -1),
    (small_sentiment_model, "input_dim", None),
    (small_sentiment_model, "hidden_size", None),
    (small_sentiment_model, "hidden_size", 2.0),
    (small_sentiment_model, "dropout_rate", "0.1"),
    (small_sentiment_model, "seed", "4"),
    (small_sentiment_model, "trained", 1),
])
def test_bad_header_field_rejected(tmp_path, make, field, value):
    path = rewritten(tmp_path, make(), {field: value})
    with pytest.raises(CheckpointError, match=repr(field)):
        load_model(path)


def test_gender_header_with_layout_still_loads(tmp_path):
    # gender checkpoints once named their feature layout in the header;
    # the field is ignored now
    model = small_model(2)
    loaded = load_model(rewritten(tmp_path, model,
                                  {"layout": ["doc_vector", "sentiment"]}))
    assert loaded.checkpoint_meta() == model.checkpoint_meta()
    assert loaded.checksum() == model.checksum()


@pytest.mark.parametrize("make", [small_model, small_sentiment_model])
def test_misshaped_parameter_rejected(tmp_path, make):
    model = make()
    params = dict(model.parameters())
    name = next(iter(params))
    params[name] = np.zeros(params[name].shape + (1,))
    with pytest.raises(CheckpointError, match=repr(name)):
        load_model(rewritten(tmp_path, model, params=params))


@pytest.mark.parametrize("make", [small_model, small_sentiment_model])
def test_extra_parameter_rejected(tmp_path, make):
    model = make()
    params = dict(model.parameters(), extra=np.zeros(2))
    with pytest.raises(CheckpointError, match="extra"):
        load_model(rewritten(tmp_path, model, params=params))


def test_sentiment_round_trip_keeps_header(tmp_path):
    model = small_sentiment_model()
    model.trained = True
    path = tmp_path / "sent.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.checkpoint_meta() == model.checkpoint_meta()
    assert loaded.checksum() == model.checksum()


@pytest.mark.parametrize("header", [
    {"model_kind": "gender"},
    {"params": {"w": [2]}},
    {"params": [{"name": "w"}]},
    {"params": [{"name": "w", "shape": ["2"]}]},
    {"params": [{"name": 3, "shape": [2]}]},
    ["params"],
])
def test_malformed_parameter_list_rejected(tmp_path, header):
    import hashlib
    import json
    import struct

    raw = json.dumps(header).encode("utf-8")
    body = b"SPNN" + struct.pack("<BI", 1, len(raw)) + raw
    path = tmp_path / "header.bin"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError, match="malformed parameter list"):
        load_model(path)


def test_parameter_names_and_order_are_pinned():
    # checkpoints store the parameters under these names in this order, and
    # the optimizer keys its moments by them
    gender_names = ["layer0.weights", "layer0.bias", "layer2.weights",
                    "layer2.bias", "layer3.weights", "layer3.bias"]
    sentiment_names = ["lstm.w_x", "lstm.w_h", "lstm.bias",
                       "head.weights", "head.bias"]
    composite = FinetuneModel(small_sentiment_model().lstm, vec_dim=2)
    for model, names in ((small_model(), gender_names),
                         (small_sentiment_model(), sentiment_names),
                         (composite, [f"mlp.{name}" for name in gender_names]
                          + sentiment_names[:3])):
        assert list(model.parameters()) == names
        assert list(model.gradients()) == names
