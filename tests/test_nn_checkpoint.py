import numpy as np
import pytest

from sentprofile.errors import CheckpointError
from sentprofile.gender import GenderModel
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
