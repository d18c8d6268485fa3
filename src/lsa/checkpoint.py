"""Binary checkpoint container: magic, version, a JSON manifest mapping
parameter names to shapes (plus vocabulary and model config), then raw
little-endian float64 payloads in manifest order.  Round-trips are
byte-exact."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import DataError
from .encoder import ConfigError, Vocabulary
from .runio import canonical_json
from .window import Model, ModelConfig

MAGIC = b"LSACHKPT"
VERSION = 1
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


def save_checkpoint(model: Model, path) -> None:
    Path(path).write_bytes(checkpoint_bytes(model))


def load_checkpoint(path) -> Model:
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    if len(blob) < HEADER.size:
        raise DataError(f"{path}: truncated checkpoint header")
    _, version, manifest_len = HEADER.unpack_from(blob)
    offset = HEADER.size
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        manifest = json.loads(blob[offset : offset + manifest_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: corrupt checkpoint manifest: {e}")
    offset += manifest_len

    try:
        model = Model(
            ModelConfig(**manifest["config"]),
            Vocabulary(list(manifest["vocab"])),
            np.random.Generator(np.random.PCG64(0)),
        )
        listed = [(entry["name"], tuple(entry["shape"])) for entry in manifest["params"]]
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise DataError(f"{path}: malformed checkpoint manifest: {e!r}")
    params = model.named_parameters()
    if [name for name, _ in listed] != list(params):
        raise DataError(f"{path}: checkpoint parameters do not match the model")
    for name, shape in listed:
        t = params[name]
        if shape != t.shape:
            raise DataError(f"{path}: shape {shape} for {name} does not match {t.shape}")
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(blob):
            raise DataError(f"{path}: truncated checkpoint payload")
        t.values[...] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape)
        offset = end
    if offset != len(blob):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")
    return model
