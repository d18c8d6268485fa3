"""Run artifacts: deterministic CSV writers, content hashing, and the run
manifest every command leaves behind so it can be replayed."""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .corpus import DataError


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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def build_manifest(command: str, args: dict, inputs: list) -> dict:
    """A command's manifest: its args and the hash of every file in
    ``inputs`` (the files it read; None entries are skipped)."""
    hashes = {str(p): file_sha256(p) for p in inputs if p}
    return {
        "command": command,
        "args": args,
        "dataset_hashes": hashes,
        "config_hash": hashlib.sha256(canonical_json(args).encode()).hexdigest(),
        "code_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, out_dir) -> Path:
    path = Path(out_dir) / "manifest.json"
    path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    return path


def load_manifest(path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid manifest JSON: {e.msg}")
    for key in ("command", "args", "dataset_hashes"):
        if key not in manifest:
            raise DataError(f"{path}: manifest missing {key!r}")
    return manifest


def verify_manifest_hashes(manifest: dict) -> None:
    for path, expected in manifest["dataset_hashes"].items():
        if not Path(path).exists():
            raise DataError(f"manifest references missing input {path}")
        actual = file_sha256(path)
        if actual != expected:
            raise DataError(
                f"input {path} changed since the manifest was written "
                f"({actual[:12]} != {expected[:12]})"
            )
