"""Crash-safe snapshot writes.

Every JSON snapshot the system persists (lake, index, provenance) goes
through :func:`write_json`, and every flat array of a sealed index
snapshot through :func:`write_array`, so a crash or a full disk
mid-write leaves the previous file in place instead of a truncated one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional


@contextmanager
def _replacing(
    path: Path, mode: str, encoding: Optional[str] = None
) -> Iterator[IO]:
    """A handle whose bytes become ``path``, all or nothing: they go to
    a temporary file beside ``path`` (same directory, so the rename
    cannot cross a filesystem), are flushed to disk, and replace
    ``path`` in one ``os.replace`` when the block ends without raising."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open(mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def write_json(payload: object, path: Path) -> None:
    """Write ``payload`` as JSON at ``path``, all or nothing."""
    with _replacing(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False)


def write_array(array, path: Path) -> None:
    """Write a numpy array's raw bytes at ``path``, all or nothing."""
    with _replacing(path, "wb") as handle:
        array.tofile(handle)
