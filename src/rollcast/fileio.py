"""Atomic file replacement: a reader sees the old file or the new one, never a part."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` for writing; rename it over `path`
    when the block ends.

    If the block raises, the temporary file is removed and `path` keeps its
    old contents. `mode` and `kwargs` go to `open` ("w" or "wb").
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
