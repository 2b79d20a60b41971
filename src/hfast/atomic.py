"""Whole-file writes for the on-disk stores (repro-cache, result store,
job ledger)."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, TextIO


def atomic_write(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write ``path`` whole or not at all.

    ``write`` fills a temp file of its own in ``path``'s directory, named
    ``.<name>.<random>.tmp``, which then replaces ``path`` in one
    ``os.replace``. Concurrent writers of one path each land a complete
    file, and a failed write removes its temp file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
