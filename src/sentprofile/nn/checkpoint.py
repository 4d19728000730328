"""Binary model checkpoints.

Layout: magic, format version, header length, a JSON header holding the
model kind, its constructor settings and the parameter names and shapes,
the parameters as little-endian float64 in declared order, and a trailing
SHA-256 checksum over everything before it.
"""

import hashlib
import json
import struct
from collections import OrderedDict

import numpy as np

from ..errors import CheckpointError

_MAGIC = b"SPNN"
FORMAT_VERSION = 1

# model kind -> class; populated by the modules defining model classes
MODEL_REGISTRY: dict[str, type] = {}


def register_model(kind: str, cls: type) -> None:
    MODEL_REGISTRY[kind] = cls


def write_checkpoint(path, meta: dict, params) -> None:
    """params: ordered mapping name -> float64 array."""
    header = dict(meta)
    header["format_version"] = FORMAT_VERSION
    header["params"] = [{"name": name, "shape": list(value.shape)}
                        for name, value in params.items()]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in (_MAGIC, struct.pack("<BI", FORMAT_VERSION, len(header_bytes)),
                      header_bytes):
            fh.write(chunk)
            digest.update(chunk)
        for value in params.values():
            raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
            fh.write(raw)
            digest.update(raw)
        fh.write(digest.digest())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def read_checkpoint(path):
    """Returns (meta, OrderedDict name -> array). Verifies the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 5 + 32:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"{path} is not a model checkpoint")
    version, header_len = struct.unpack("<BI", blob[4:9])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}; "
                              f"this build reads version {FORMAT_VERSION}")
    body, checksum = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise CheckpointError(f"checkpoint {path} failed its checksum "
                              "(truncated or corrupt)")
    try:
        header = json.loads(body[9:9 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header in {path}: {exc}")
    entries = header.get("params") if isinstance(header, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_int(dim) and dim >= 0 for dim in entry["shape"])
            for entry in entries):
        raise CheckpointError(f"checkpoint {path} has a malformed parameter "
                              "list in its header")
    offset = 9 + header_len
    params = OrderedDict()
    for entry in entries:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(body):
            raise CheckpointError(f"checkpoint {path} is truncated")
        params[entry["name"]] = np.frombuffer(
            body[offset:end], dtype="<f8").reshape(shape).astype(np.float64)
        offset = end
    if offset != len(body):
        raise CheckpointError(f"checkpoint {path} has trailing bytes")
    meta = {k: v for k, v in header.items()
            if k not in ("params", "format_version")}
    return meta, params


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


# header field kinds a model's `from_checkpoint` reads: (test, description)
_HEADER_KINDS = {
    "count": (_is_count, "an integer >= 1"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "rate": (lambda v: (_is_int(v) or isinstance(v, float)) and 0.0 <= v < 1.0,
             "a number in [0, 1)"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "counts": (lambda v: isinstance(v, list) and all(map(_is_count, v)),
               "a list of integers >= 1"),
}

_REQUIRED = object()


def header_field(meta: dict, name: str, kind: str, default=_REQUIRED):
    """Checkpoint header field `name`, checked against _HEADER_KINDS[kind].
    A missing field takes `default`; without one, or when the value is of
    the wrong kind, CheckpointError."""
    if name not in meta:
        if default is _REQUIRED:
            raise CheckpointError(f"checkpoint header lacks field {name!r}")
        return default
    test, description = _HEADER_KINDS[kind]
    value = meta[name]
    if not test(value):
        raise CheckpointError(f"checkpoint header field {name!r} must be "
                              f"{description}, got {value!r}")
    return value


def load_parameters(own, params) -> None:
    """Copy checkpoint `params` into a model's live arrays `own` (both
    name -> array); the names and shapes must match exactly."""
    if set(own) != set(params):
        raise CheckpointError(f"checkpoint parameters {sorted(params)} do not "
                              f"match the model's {sorted(own)}")
    for name, value in own.items():
        loaded = params[name]
        if loaded.shape != value.shape:
            raise CheckpointError(f"checkpoint parameter {name!r} has shape "
                                  f"{loaded.shape}, the model {value.shape}")
        value[...] = loaded


def save_model(model, path) -> None:
    """Serialize any registered model (sentiment or gender)."""
    kind = getattr(model, "checkpoint_kind", None)
    if kind is None or kind not in MODEL_REGISTRY:
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    meta = model.checkpoint_meta()
    meta["model_kind"] = kind
    write_checkpoint(path, meta, model.parameters())


def load_model(path):
    meta, params = read_checkpoint(path)
    kind = meta.pop("model_kind", None)
    cls = MODEL_REGISTRY.get(kind)
    if cls is None:
        raise CheckpointError(f"checkpoint {path} holds unknown model kind {kind!r}")
    return cls.from_checkpoint(meta, params)
