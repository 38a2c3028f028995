"""Crash-safe snapshot writes.

Every snapshot the system persists (the lake and the provenance store)
goes through :func:`write_json`, so a crash or a full disk mid-write
leaves the previous file in place instead of a truncated one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_json(payload: object, path: Path) -> None:
    """Write ``payload`` as JSON at ``path``, all or nothing: the text
    goes to a temporary file beside ``path`` (same directory, so the
    rename cannot cross a filesystem), is flushed to disk, and replaces
    ``path`` in one ``os.replace`` once it is whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
