"""Binary checkpoint container: magic, version, a JSON manifest mapping
parameter names to shapes (plus vocabulary and model config), then raw
little-endian float64 payloads in manifest order.  Round-trips are
byte-exact.  A load draws no random init: the model is built on empty
arrays, which the payload then fills.  Version 2 lists exactly the
model's parameters; a version 1 file is read by skipping the entries the
model lacks, which no forward read."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .corpus import DataError, read_existing
from .encoder import ConfigError, Vocabulary
from .runio import canonical_json, write_file
from .window import Model, ModelConfig

MAGIC = b"LSACHKPT"
VERSION = 2
HEADER = struct.Struct("<8sIQ")  # magic, version, manifest length


def checkpoint_bytes(model: Model) -> bytes:
    params = model.named_parameters()
    manifest = {
        "version": VERSION,
        "params": [{"name": n, "shape": list(t.shape)} for n, t in params.items()],
        "vocab": model.vocab.id_to_token,
        "config": asdict(model.config),
    }
    manifest_bytes = canonical_json(manifest).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(t.values, dtype="<f8").tobytes() for t in params.values()
    )
    return HEADER.pack(MAGIC, VERSION, len(manifest_bytes)) + manifest_bytes + payload


class _NoDraw:
    """A stand-in for the generator ``Model`` initializes from: every draw
    is an uninitialized array of the asked size.  ``load_checkpoint``
    checks that the payload sets every parameter."""

    @staticmethod
    def normal(loc, scale, size):
        return np.empty(size)

    uniform = normal


def _v1_shapes(params: dict) -> dict[str, tuple]:
    """The parameters a version 1 file of the model lists, with their
    shapes: a key bias after each key weight, and both side weights last."""
    shapes = {}
    for name, t in params.items():
        if not name.startswith("dwa."):
            shapes[name] = t.shape
        if name.endswith(".wk"):
            shapes[name[:-2] + "bk"] = t.shape[1:]
    return shapes | {"dwa.eta_l": (1,), "dwa.eta_r": (1,)}


def save_checkpoint(model: Model, path) -> None:
    write_file(path, checkpoint_bytes(model))


def load_checkpoint(path) -> Model:
    """The model a checkpoint file holds.  Its config is read by
    ``ModelConfig.from_dict``, so a value of the wrong JSON type is not
    coerced; that, and any other fault of the file, is a DataError."""
    blob = read_existing(path)
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if len(blob) < HEADER.size:
        raise DataError(f"{path}: truncated checkpoint header")
    _, version, manifest_len = HEADER.unpack_from(blob)
    offset = HEADER.size
    if version not in (1, VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        manifest = json.loads(blob[offset : offset + manifest_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint manifest: {e}")
    offset += manifest_len

    try:
        model = Model(
            ModelConfig.from_dict(manifest["config"]),
            Vocabulary(list(manifest["vocab"])),
            _NoDraw(),
        )
        listed = [(entry["name"], tuple(entry["shape"])) for entry in manifest["params"]]
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise DataError(f"{path}: malformed checkpoint manifest: {e!r}")
    params = model.named_parameters()
    shapes = {n: t.shape for n, t in params.items()} if version == VERSION else _v1_shapes(params)
    if [name for name, _ in listed] != list(shapes):
        raise DataError(f"{path}: checkpoint parameters do not match the model")
    for name, shape in listed:
        if shape != shapes[name]:
            raise DataError(f"{path}: shape {shape} for {name} does not match {shapes[name]}")
        end = offset + 8 * math.prod(shape)
        if end > len(blob):
            raise DataError(f"{path}: truncated checkpoint payload")
        if name in params:  # else a v1 entry that no forward read
            params[name].values[...] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape)
        offset = end
    if offset != len(blob):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return model
