"""Whole-file writes for the on-disk stores (repro-cache, result store,
job ledger)."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable


def _read_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


#: The mode ``open()`` gives a new file under this process's umask.
#: ``mkstemp`` creates its file 0600, which other users of a shared cache
#: or result store could not read.
_FILE_MODE = 0o666 & ~_read_umask()


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` whole or not at all.

    ``write`` fills a temp file of its own, opened in binary mode in
    ``path``'s directory and named ``.<name>.<random>.tmp``, which then
    replaces ``path`` in one ``os.replace``. Concurrent writers of one
    path each land a complete file, and a failed write removes its temp
    file. The file gets the mode ``open()`` would give it (``0o666``
    less the umask at import).
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), _FILE_MODE)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
