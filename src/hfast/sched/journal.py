"""Run-state journal: crash-safe progress log enabling ``--resume``.

Each scheduler run appends JSONL records to
``<journal_dir>/<run_id>.jsonl``:

- one ``run`` header (cell list + a config fingerprint),
- one ``cell_done`` record per finished cell carrying the complete raw
  worker result (summary, span/app_summary events, metrics snapshot,
  cache statistics, attempts) — everything the deterministic merge needs,
- a final ``run_complete`` marker, written by the runner once its last
  batch has run with every cell ok (:func:`hfast.pipeline.close_journal`).

Resuming loads the journal, verifies the fingerprint matches the new
invocation (the same declared inputs, cache and shard — resuming a
different sweep is an error, not a silent skip), and replays completed cells from
their journaled results instead of re-running them. Only successful
cells are journaled, so a failed or interrupted cell re-runs on resume;
the content-addressed ``.repro_cache`` makes that re-run idempotent.

Every record is written with ``flush`` + line granularity, so a run
killed mid-campaign loses at most the cell in flight.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path
from typing import Any

DEFAULT_JOURNAL_SUBDIR = ".sched_journal"
JOURNAL_FORMAT = 1


class JournalError(RuntimeError):
    """A journal could not be loaded or does not match the invocation."""


def new_run_id() -> str:
    """Sortable, collision-safe run id: utc timestamp + random suffix."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def has_journal(journal_dir: str | os.PathLike, run_id: str) -> bool:
    """True when a journal file exists for ``run_id`` under ``journal_dir``.

    The serve daemon's crash recovery uses this to decide between
    ``resume=<run_id>`` (a journal survived, replay its completed cells)
    and a fresh run under the same id (the daemon died before the
    scheduler wrote anything).
    """
    return (Path(journal_dir) / f"{run_id}.jsonl").is_file()


def journal_dir_for(cache_dir: str | os.PathLike, journal_dir: str | os.PathLike | None) -> Path:
    """Journal location: explicit dir, else a subdir beside the cache.

    The subdir keeps journals out of the cache's entry listing while
    still colocating run state with the artifacts it describes.
    """
    if journal_dir is not None:
        return Path(journal_dir)
    return Path(cache_dir) / DEFAULT_JOURNAL_SUBDIR


class RunJournal:
    """Append-only JSONL journal for one scheduler run."""

    def __init__(self, path: Path, run_id: str, fingerprint: dict[str, Any]):
        self.path = path
        self.run_id = run_id
        self.fingerprint = fingerprint
        # index -> {"attempts": int, "result": raw worker result}
        self.completed: dict[int, dict[str, Any]] = {}
        self.complete = False

    # -- creation / loading -------------------------------------------------

    @classmethod
    def open(
        cls,
        journal_dir: str | os.PathLike,
        fingerprint: dict[str, Any],
        resume: str | None = None,
        run_id: str | None = None,
    ) -> "RunJournal":
        """Resume run ``resume``, whose fingerprint must equal this
        invocation's, or else start a journal named ``run_id`` (default:
        a fresh id)."""
        if resume is None:
            return cls.create(journal_dir, run_id or new_run_id(), fingerprint)
        journal = cls.load(journal_dir, resume)
        journal.check_fingerprint(fingerprint)
        return journal

    @classmethod
    def create(
        cls, journal_dir: str | os.PathLike, run_id: str, fingerprint: dict[str, Any]
    ) -> "RunJournal":
        path = Path(journal_dir) / f"{run_id}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        journal = cls(path, run_id, fingerprint)
        journal._append(
            {
                "kind": "run",
                "journal_format": JOURNAL_FORMAT,
                "run_id": run_id,
                "fingerprint": fingerprint,
            }
        )
        return journal

    @classmethod
    def load(cls, journal_dir: str | os.PathLike, run_id: str) -> "RunJournal":
        path = Path(journal_dir) / f"{run_id}.jsonl"
        if not path.is_file():
            available = sorted(p.stem for p in Path(journal_dir).glob("*.jsonl")) if Path(
                journal_dir
            ).is_dir() else []
            raise JournalError(
                f"no journal for run '{run_id}' under {journal_dir} "
                f"(available: {', '.join(available) or 'none'})"
            )
        header: dict[str, Any] | None = None
        completed: dict[int, dict[str, Any]] = {}
        complete = False
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    # A torn final line is exactly what a crash leaves
                    # behind; everything before it is still good.
                    continue
                kind = rec.get("kind")
                if kind == "run":
                    if header is not None:
                        raise JournalError(f"{path}:{lineno}: duplicate run header")
                    header = rec
                elif kind == "cell_done":
                    completed[int(rec["index"])] = {
                        "attempts": int(rec.get("attempts", 1)),
                        "result": rec["result"],
                    }
                elif kind == "run_complete":
                    complete = True
        if header is None:
            raise JournalError(f"{path}: missing run header")
        journal = cls(path, run_id, header.get("fingerprint") or {})
        journal.completed = completed
        journal.complete = complete
        return journal

    # -- writing ------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def record_done(self, index: int, key: str, attempts: int, result: dict[str, Any]) -> None:
        self._append(
            {
                "kind": "cell_done",
                "index": index,
                "key": key,
                "attempts": attempts,
                "result": result,
            }
        )
        self.completed[index] = {"attempts": attempts, "result": result}

    def record_complete(self) -> None:
        self._append({"kind": "run_complete"})
        self.complete = True

    # -- resume validation --------------------------------------------------

    def check_fingerprint(self, fingerprint: dict[str, Any]) -> None:
        """Refuse to resume a journal from a different sweep."""
        if self.fingerprint != fingerprint:
            mismatched = sorted(
                k
                for k in set(self.fingerprint) | set(fingerprint)
                if self.fingerprint.get(k) != fingerprint.get(k)
            )
            raise JournalError(
                f"journal {self.run_id} does not match this invocation "
                f"(differs on: {', '.join(mismatched)})"
            )


def build_fingerprint(
    spec: Any,
    cache_dir: str | os.PathLike,
    store: bool,
    shard: tuple[int, int] | None = None,
) -> dict[str, Any]:
    """The invocation identity a resume must match cell-for-cell.

    ``spec`` is the run's declared inputs (a :class:`~hfast.spec.RunSpec`,
    or a design-space search's spec): its canonical document, plus where
    results land (``cache_dir``, ``store``) and which cells run (``shard``).
    """
    return {
        **spec.canonical_doc(),
        "cache_dir": str(cache_dir),
        "store": store,
        "shard": list(shard) if shard else None,
    }
