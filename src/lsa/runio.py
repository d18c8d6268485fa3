"""Run artifacts: deterministic CSV writers, content hashing, and the run
manifest every command leaves behind so it can be replayed.  Every
artifact is written by ``write_file``."""

from __future__ import annotations

import errno
import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .corpus import DataError, read_existing, read_text
from .encoder import ConfigError


class OutputError(ConfigError):
    """An artifact that cannot be written where ``--out`` puts it.  A usage
    error under ``lsa replay`` too: the manifest is not at fault."""


def write_file(path, data: str | bytes) -> None:
    """Write ``data``, a str as UTF-8, to the file at ``path``; an
    OutputError naming the path if it cannot be (a directory there, a
    missing parent, no permission)."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}")


def check_writable(paths) -> None:
    """The OutputError of the first of ``paths`` that ``write_file`` could
    not write, as it would name it: a directory there, or no permission to
    write the file or, for a new file, its directory."""
    for path in map(Path, paths):
        if path.is_dir():
            raise OutputError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        if not os.access(path if path.exists() else path.parent, os.W_OK):
            raise OutputError(f"cannot write {path}: {os.strerror(errno.EACCES)}")


def fmt(value) -> str:
    """Shortest round-trip decimal form; keeps CSV bytes reproducible."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    write_file(path, "\n".join(lines) + "\n")


def file_sha256(path) -> str:
    return hashlib.sha256(read_existing(path)).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_hash(args: dict) -> str:
    return hashlib.sha256(canonical_json(args).encode()).hexdigest()


def build_manifest(command: str, args: dict, inputs: list) -> dict:
    """A command's manifest: its args and the hash of every file in
    ``inputs`` (the files it read; None entries are skipped)."""
    hashes = {str(p): file_sha256(p) for p in inputs if p}
    return {
        "command": command,
        "args": args,
        "dataset_hashes": hashes,
        "config_hash": config_hash(args),
        "code_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, out_dir) -> Path:
    path = Path(out_dir) / "manifest.json"
    write_file(path, canonical_json(manifest) + "\n")
    return path


def load_manifest(path) -> dict:
    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid manifest JSON: {e.msg}")
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    for key, kind, name in (("command", str, "a string"), ("args", dict, "an object"),
                            ("dataset_hashes", dict, "an object")):
        if key not in manifest:
            raise DataError(f"{path}: manifest missing {key!r}")
        if not isinstance(manifest[key], kind):
            raise DataError(f"{path}: manifest {key!r} must be {name}")
    if not all(isinstance(v, str) for v in manifest["dataset_hashes"].values()):
        raise DataError(f"{path}: manifest 'dataset_hashes' must map paths to hash strings")
    if manifest.get("config_hash") != config_hash(manifest["args"]):
        raise DataError(f"{path}: manifest 'config_hash' is missing or does not match its args")
    return manifest


def verify_manifest_hashes(manifest: dict) -> None:
    for path, expected in manifest["dataset_hashes"].items():
        actual = file_sha256(path)
        if actual != expected:
            raise DataError(
                f"input {path} changed since the manifest was written "
                f"({actual[:12]} != {expected[:12]})"
            )
