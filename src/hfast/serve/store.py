"""Durable service state: result artifacts + job ledger.

Two small on-disk stores back the daemon, both plain files under the
serve directory so an operator can inspect them with ``cat``:

- :class:`ResultStore` — content-addressed result cache under
  ``results/<sha256>.json``. The stored bytes are exactly
  ``json.dumps(summary, sort_keys=True) + "\\n"``, UTF-8 encoded — the
  same serialization the report writers use — and
  ``GET /v1/results/<key>`` serves them verbatim, which is what makes
  the byte-identity contract with a direct ``hfast analyze`` run
  testable. Writes are atomic (:func:`hfast.atomic.atomic_write`, which
  the repro-cache uses too).
- :class:`JobLedger` — one JSON document per job under
  ``jobs/<job_id>.json`` recording the submission, its canonical key,
  and the job's lifecycle state. The ledger is what daemon restart
  recovery walks: any job left ``queued``/``running`` by a crash is
  re-admitted, resuming from the scheduler journal when one survived.

Keys are validated against strict hex patterns before touching the
filesystem, so a request path can never escape the store directory.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any

from hfast.atomic import atomic_write

RESULT_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
JOB_ID_RE = re.compile(r"^[0-9A-Za-z._-]{1,64}$")

#: Lifecycle states a ledger entry moves through.
JOB_STATES = ("queued", "running", "done", "failed")


class ResultStore:
    """Content-addressed result artifacts: ``results/<sha256>.json``.

    With ``max_bytes`` set, the store enforces an LRU byte budget: each
    ``put`` that pushes the total over the cap evicts the
    least-recently-used artifacts (by file mtime — reads touch it) until
    the budget holds again. The just-written artifact is never evicted,
    even when it alone exceeds the budget, so a ``put`` is always
    followed by a successful ``get``. ``on_evict`` (if given) is called
    once per evicted key — the daemon hangs its
    ``serve.store_evictions_total`` counter there.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int | None = None,
        on_evict: Any = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.on_evict = on_evict

    def _path(self, key: str) -> Path:
        if not RESULT_KEY_RE.match(key):
            raise KeyError(f"invalid result key {key!r}")
        return self.root / f"{key}.json"

    def has(self, key: str) -> bool:
        try:
            return self._path(key).is_file()
        except KeyError:
            return False

    def put(self, key: str, summary: dict[str, Any]) -> Path:
        """Atomically store a result summary; idempotent per key."""
        path = self._path(key)
        payload = (json.dumps(summary, sort_keys=True) + "\n").encode("utf-8")
        atomic_write(path, lambda fh: fh.write(payload))
        if self.max_bytes is not None:
            self._evict(keep=path.name)
        return path

    def _evict(self, keep: str) -> None:
        """Drop LRU artifacts until the byte budget holds (best-effort)."""
        entries = []
        total = 0
        for p in self.root.glob("*.json"):
            if not RESULT_KEY_RE.match(p.stem):
                continue
            try:
                st = p.stat()
            except OSError:
                continue
            total += st.st_size
            entries.append((st.st_mtime, p))
        if total <= self.max_bytes:
            return
        entries.sort()
        for _mtime, p in entries:
            if total <= self.max_bytes:
                break
            if p.name == keep:
                continue
            try:
                size = p.stat().st_size
                p.unlink()
            except OSError:
                continue
            total -= size
            if self.on_evict is not None:
                self.on_evict(p.stem)

    def get_bytes(self, key: str) -> bytes | None:
        """The stored artifact, byte-for-byte; ``None`` when absent."""
        try:
            path = self._path(key)
        except KeyError:
            return None
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        # A read is an LRU touch: recently-served artifacts survive
        # eviction longer than cold ones.
        if self.max_bytes is not None:
            try:
                os.utime(path)
            except OSError:
                pass
        return raw

    def get(self, key: str) -> dict[str, Any] | None:
        raw = self.get_bytes(key)
        return None if raw is None else json.loads(raw)

    def keys(self) -> list[str]:
        return sorted(
            p.stem for p in self.root.glob("*.json") if RESULT_KEY_RE.match(p.stem)
        )


class JobLedger:
    """Per-job lifecycle records: ``jobs/<job_id>.json``."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        if not JOB_ID_RE.match(job_id):
            raise KeyError(f"invalid job id {job_id!r}")
        return self.root / f"{job_id}.json"

    def write(self, record: dict[str, Any]) -> None:
        """Atomically persist one job record (keyed by ``record['job_id']``)."""
        path = self._path(record["job_id"])
        payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        atomic_write(path, lambda fh: fh.write(payload))

    def read(self, job_id: str) -> dict[str, Any] | None:
        try:
            path = self._path(job_id)
        except KeyError:
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def all(self) -> list[dict[str, Any]]:
        records = []
        for path in sorted(self.root.glob("*.json")):
            if path.name.startswith(".tmp_"):
                continue
            try:
                records.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue
        return records

    def unfinished(self) -> list[dict[str, Any]]:
        """Jobs a previous daemon left in flight (crash-recovery input)."""
        return [r for r in self.all() if r.get("status") in ("queued", "running")]
