"""Run manifest: provenance stamped at the start of every pipeline run.

Captures git SHA, timestamp, host/python info, the requested app/scale
matrix, and (once the run finishes) cache hit/miss counts. The manifest
is the first event in the JSONL trace and is embedded in the run report,
so every ``BENCH_*.json`` entry is traceable to an exact tree state.
"""

from __future__ import annotations

import datetime
import functools
import os
import sys
from typing import Any

_HEX = frozenset("0123456789abcdef")


def git_sha(cwd: str | None = None) -> str:
    """HEAD's SHA in ``cwd`` (default: the working directory), or
    ``"unknown"``. Read once per resolved directory for the life of the
    process."""
    try:
        where = os.path.realpath(cwd or os.getcwd())
    except OSError:
        return "unknown"
    return _git_sha_at(where)


@functools.lru_cache(maxsize=None)
def _git_sha_at(cwd: str) -> str:
    """HEAD's SHA, read from the files of the repository around ``cwd``
    rather than by spawning ``git``, which would put a child process into
    every run's start-up."""
    try:
        dirs = _git_dirs(cwd)
        return "unknown" if dirs is None else _head_sha(*dirs)
    except (OSError, UnicodeDecodeError):
        return "unknown"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _git_dirs(cwd: str) -> tuple[str, str] | None:
    """The git directory of the work tree holding ``cwd`` and the common
    directory its refs live in: ``.git`` itself, or the ``gitdir:`` a
    ``.git`` file names (a linked worktree or a submodule) with that
    directory's ``commondir``."""
    here = cwd
    while not os.path.exists(os.path.join(here, ".git")):
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent
    gitdir = os.path.join(here, ".git")
    if os.path.isfile(gitdir):
        line = _read(gitdir)
        if not line.startswith("gitdir:"):
            return None
        gitdir = os.path.join(here, line[len("gitdir:") :].strip())
    common = os.path.join(gitdir, "commondir")
    if os.path.isfile(common):
        return gitdir, os.path.join(gitdir, _read(common))
    return gitdir, gitdir


def _head_sha(gitdir: str, commondir: str) -> str:
    """A detached HEAD's SHA, or that of the branch HEAD names, as a loose
    ref or a line of ``packed-refs``; ``"unknown"`` for anything else."""
    head = _read(os.path.join(gitdir, "HEAD"))
    if not head.startswith("ref:"):
        return _sha_or_unknown(head)
    ref = head[len("ref:") :].strip()
    for base in (gitdir, commondir):
        if os.path.isfile(os.path.join(base, ref)):
            return _sha_or_unknown(_read(os.path.join(base, ref)))
    packed = os.path.join(commondir, "packed-refs")
    if os.path.isfile(packed):
        for line in _read(packed).splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return _sha_or_unknown(sha)
    return "unknown"


def _sha_or_unknown(text: str) -> str:
    """``text`` when it is a full SHA-1 or SHA-256 hex digest."""
    return text if len(text) in (40, 64) and set(text) <= _HEX else "unknown"


def build_manifest(
    apps: list[str],
    scales: dict[str, list[int]],
    argv: list[str] | None = None,
    cwd: str | None = None,
    workers: int = 1,
    shard: tuple[int, int] | None = None,
    scheduler: dict[str, Any] | None = None,
    service: dict[str, Any] | None = None,
    dse: dict[str, Any] | None = None,
) -> dict[str, Any]:
    # Not platform.platform(): it finds the libc version by spawning
    # `uname -p` and scanning the interpreter binary, several milliseconds
    # of every run's start-up.
    uname = os.uname()
    return {
        "git_sha": git_sha(cwd),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "argv": list(argv) if argv is not None else list(sys.argv),
        "apps": list(apps),
        "scales": {app: list(ns) for app, ns in scales.items()},
        "workers": workers,
        "shard": {"index": shard[0], "count": shard[1]} if shard else None,
        # Scheduler section: backend (+ run id) up front; the work-stealing
        # backend folds its steal/retry/re-dispatch counters in at the end.
        "scheduler": dict(scheduler) if scheduler else {"backend": "static"},
        # Set when the run was submitted through `hfast serve`: the job id
        # and content-addressed result key, so a served artifact is
        # traceable back to the exact HTTP submission that produced it.
        "service": dict(service) if service else None,
        # Set for design-space searches: the search/space content keys,
        # strategy, and seed, so a frontier artifact is traceable to the
        # exact spec that produced it.
        "dse": dict(dse) if dse else None,
        # Filled in when the run completes:
        "cache": None,
        "cells": None,
        "failed_cells": [],
    }
