"""Structured JSON logging with run/span/job correlation IDs.

The run-time surfaces (the work-stealing scheduler, the serve daemon,
the ``--live`` status view) historically narrated themselves with ad-hoc
``print(..., file=sys.stderr)`` lines — readable, but impossible to
correlate with the JSONL trace after the fact. This module gives them a
shared structured channel:

- :class:`StructuredLogger` — emits one sorted-key JSON object per line
  (``ts``, ``level``, ``event``, plus whatever fields are bound).
  Loggers are cheap immutable views: :meth:`StructuredLogger.bind`
  returns a child sharing the writer with extra correlation fields
  (``run_id``, ``job_id``, ``cell``, ``span_id`` ...), so every record a
  subsystem emits carries the ids needed to join it against the trace.
- :class:`RotatingJsonlWriter` — the size-capped on-disk sink. Rollover
  happens *between* records (a record is never split across files):
  when the next line would push the file past ``max_bytes`` the file is
  shifted to ``<path>.1`` (existing ``<path>.k`` shift to ``.k+1``, the
  oldest beyond ``max_files`` is dropped) and a fresh file is opened.
- An **ambient logger**: :func:`configure_logging` installs a
  process-wide root; :func:`get_logger` hands out bound children. When
  nothing configured logging, :func:`get_logger` returns a shared
  disabled logger whose methods are no-ops — instrumented call sites in
  the scheduler and live view cost one attribute check in the common
  (unconfigured) case, and existing stderr output is untouched.
- :func:`read_log_records` — the tolerant reader: walks rotated
  siblings oldest-first, skips blank/malformed lines (a crash can
  truncate the final line mid-record), and returns plain dicts.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Any

LEVELS = ("debug", "info", "warning", "error")

DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_MAX_FILES = 5


class RotatingJsonlWriter:
    """Append-only JSONL file with size-based rollover between records."""

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
    ):
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.max_files = max(1, int(max_files))
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._fh: io.TextIOBase | None = open(self.path, "a", encoding="utf-8")
        self._size = os.path.getsize(self.path)

    def write_line(self, line: str) -> None:
        """Write one complete line (no trailing newline expected)."""
        data = line + "\n"
        nbytes = len(data.encode("utf-8"))
        with self._lock:
            if self._fh is None:
                return
            if self.max_bytes is not None and self._size > 0 and self._size + nbytes > self.max_bytes:
                self._rotate_locked()
            self._fh.write(data)
            self._fh.flush()
            self._size += nbytes

    def _rotate_locked(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        self._fh.close()
        rotate_siblings(self.path, self.max_files)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None


def rotate_siblings(path: str | os.PathLike, max_files: int) -> None:
    """Shift ``path`` -> ``path.1`` -> ``path.2`` ... keeping ``max_files`` siblings.

    The sibling at ``path.max_files`` (the oldest) is overwritten by the
    shift; callers re-open ``path`` fresh afterwards.
    """
    path = os.fspath(path)
    for k in range(max(1, int(max_files)) - 1, 0, -1):
        src = f"{path}.{k}"
        if os.path.exists(src):
            os.replace(src, f"{path}.{k + 1}")
    if os.path.exists(path):
        os.replace(path, f"{path}.1")


def rotated_paths(path: str | os.PathLike) -> list[str]:
    """All files holding one logical stream, oldest first (``path`` last)."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    base = os.path.basename(path)
    numbered: list[tuple[int, str]] = []
    if os.path.isdir(parent):
        for name in os.listdir(parent):
            if name.startswith(base + "."):
                suffix = name[len(base) + 1:]
                if suffix.isdigit():
                    numbered.append((int(suffix), os.path.join(parent, name)))
    ordered = [p for _, p in sorted(numbered, reverse=True)]  # highest N = oldest
    if os.path.exists(path):
        ordered.append(path)
    return ordered


class StructuredLogger:
    """Immutable bound logger emitting sorted-key JSON records."""

    __slots__ = ("_writer", "_fields")

    def __init__(self, writer: RotatingJsonlWriter | None, fields: dict[str, Any] | None = None):
        self._writer = writer
        self._fields = dict(fields or {})

    @property
    def enabled(self) -> bool:
        return self._writer is not None

    @property
    def fields(self) -> dict[str, Any]:
        return dict(self._fields)

    def bind(self, **fields: Any) -> "StructuredLogger":
        """Child logger with extra correlation fields (None values dropped)."""
        if self._writer is None:
            return self
        merged = dict(self._fields)
        merged.update({k: v for k, v in fields.items() if v is not None})
        return StructuredLogger(self._writer, merged)

    def log(self, level: str, event: str, **fields: Any) -> None:
        if self._writer is None:
            return
        record: dict[str, Any] = {"ts": round(time.time(), 6), "level": level, "event": event}
        record.update(self._fields)
        record.update({k: v for k, v in fields.items() if v is not None})
        self._writer.write_line(json.dumps(record, sort_keys=True, default=str))

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()


#: Shared no-op logger handed out when logging is unconfigured.
DISABLED_LOGGER = StructuredLogger(None)

_root: StructuredLogger | None = None


def configure_logging(
    target: str | os.PathLike | RotatingJsonlWriter,
    max_bytes: int | None = DEFAULT_MAX_BYTES,
    max_files: int = DEFAULT_MAX_FILES,
    **bound: Any,
) -> StructuredLogger:
    """Install the process-wide root logger; returns it."""
    global _root
    writer = (
        target
        if isinstance(target, RotatingJsonlWriter)
        else RotatingJsonlWriter(target, max_bytes=max_bytes, max_files=max_files)
    )
    _root = StructuredLogger(writer, {k: v for k, v in bound.items() if v is not None})
    return _root


def get_logger(**bound: Any) -> StructuredLogger:
    """The ambient logger (bound with extras), or the shared no-op."""
    if _root is None:
        return DISABLED_LOGGER
    return _root.bind(**bound) if bound else _root


def reset_logging() -> None:
    """Close and uninstall the root logger (tests, end of CLI commands)."""
    global _root
    if _root is not None:
        _root.close()
        _root = None


def read_log_records(
    path: str | os.PathLike, strict: bool = False, level: str | None = None
) -> list[dict[str, Any]]:
    """Read a structured log stream back, rotated siblings included.

    Records come back oldest-first across the whole rotation chain.
    Malformed lines are skipped (a crashed writer can truncate the final
    line) unless ``strict``, which raises ``ValueError``.
    """
    records: list[dict[str, Any]] = []
    for part in rotated_paths(path):
        with open(part, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    if strict:
                        raise ValueError(f"{part}:{lineno}: malformed log line: {exc}") from exc
                    continue
                if isinstance(rec, dict) and (level is None or rec.get("level") == level):
                    records.append(rec)
    return records
