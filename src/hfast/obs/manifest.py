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
import platform
import subprocess
import sys
from typing import Any


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
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


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
    return {
        "git_sha": git_sha(cwd),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
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
