"""Persistent telemetry history: an append-only, content-addressed TSDB-lite.

The paper's methodology is longitudinal — IPM-style profiles compared
across many runs and scales — but every observability artifact so far
dies with its process. This module is the durable layer: pipeline runs,
serve-daemon jobs, and periodic service snapshots append compact
**snapshot documents** to an on-disk history directory that any later
``hfast obs {history,trend,slo}`` invocation can query post-mortem.

Snapshot shape::

    {"kind": ..., "key": sha256(data), "data": {...}, "meta": {...}}

``data`` holds only *deterministic* fields — the BENCH run-row
projection (:func:`hfast.obs.report.bench_run_rows`) plus metrics
filtered to the deterministic instrument families — so the same work on
any backend (serial / stealing / the serve daemon) produces the
same bytes, hence the same content-addressed ``key``. Identical reruns
dedupe instead of accumulating, and the default ``hfast obs trend``
output is a pure function of history *content*: byte-identical no
matter which backend wrote the snapshots. Everything wall-clock- or
host-derived (timestamps, git SHA, cell wall times, SLO burn rates)
lives in ``meta``, outside the key and outside the default trend
output.

Storage is crash-tolerant by construction: each writer appends JSONL to
its own ``wip-<pid>-<nonce>.jsonl`` segment (no cross-process
interleaving), and :meth:`HistoryStore.close` seals the segment by
renaming it to ``seg-<sha12>.jsonl`` — the sha of its content, so
sealed segments are immutable and idempotent to re-seal. A crash leaves
the wip segment behind; the tolerant reader still consumes every
complete line in it. :func:`compact` implements retention: merge +
dedupe every segment into one sealed file and drop the originals.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import uuid
from pathlib import Path
from typing import Any

from hfast.obs.report import bench_run_rows

#: Metric families whose values are pure functions of the analyzed work
#: (message sizes, LogGP latencies, MPI call counts). Everything else is
#: volatile and excluded from the content-addressed snapshot data:
#: wall-time gauges, serve admission counters, slo burn rates — and
#: ``stage.*`` call counts, which depend on the *cache state* (a hit
#: runs ``cache_load``, a miss runs ``trace_synthesis`` + ``cache_store``),
#: not on the work itself.
DETERMINISTIC_METRIC_PREFIXES = (
    "calls.",
    "pipeline.",
    "msg_size_bytes",
    "call_latency_usec",
)

SEGMENT_PREFIX = "seg-"
WIP_PREFIX = "wip-"
DEFAULT_MAX_SEGMENT_BYTES = 4 * 1024 * 1024


def canonical_bytes(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def content_key(data: Any) -> str:
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


def deterministic_metrics(metrics_snapshot: dict[str, Any] | None) -> dict[str, Any]:
    """Filter a registry ``to_dict()`` down to the deterministic families."""
    if not metrics_snapshot:
        return {}
    return {
        name: doc
        for name, doc in sorted(metrics_snapshot.items())
        if name.startswith(DETERMINISTIC_METRIC_PREFIXES)
    }


def snapshot_from_run(
    manifest: dict[str, Any],
    results: list[dict[str, Any]],
    metrics_snapshot: dict[str, Any] | None = None,
    source: str = "analyze",
    anomalies: list[dict[str, Any]] | None = None,
    slo_statuses: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Build one run snapshot from pipeline outputs.

    ``data`` (content-addressed): the BENCH run-row projection of the
    per-app summaries plus deterministic metrics. ``meta`` (volatile):
    provenance and wall-derived observations for time-ordered queries.
    """
    data = {
        "kind": "run",
        "results": bench_run_rows(results),
        "metrics": deterministic_metrics(metrics_snapshot),
    }
    cells = list(manifest.get("cells") or [])
    sched = manifest.get("scheduler") or {}
    stragglers = sorted(
        {a.get("cell") for a in (anomalies or []) if a.get("kind") == "straggler" and a.get("cell")}
    )
    meta = {
        "source": source,
        "timestamp": manifest.get("timestamp"),
        "git_sha": manifest.get("git_sha"),
        "host": manifest.get("host"),
        "workers": manifest.get("workers"),
        "scheduler": sched.get("backend"),
        "run_id": sched.get("run_id"),
        "cells_total": len(cells),
        "cells_failed": sum(1 for c in cells if not c.get("ok", True)),
        "cell_walls": {
            f"{c.get('app')}_p{c.get('nranks')}": c.get("wall_s") for c in cells
        },
        "stragglers": stragglers,
        "anomalies": len(anomalies or []),
        "slo": [
            {"slo": s.get("slo"), "breached": s.get("breached"), "burn": s.get("burn")}
            for s in (slo_statuses or [])
        ],
        "slo_violations": sum(1 for s in (slo_statuses or []) if s.get("breached")),
    }
    return {"kind": "run", "key": content_key(data), "data": data, "meta": meta}


def snapshot_from_service(
    metrics_snapshot: dict[str, Any],
    source: str = "serve",
    timestamp: float | None = None,
    extra_meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Periodic service-counter snapshot (admission/queue/cache series).

    Service counters are cumulative and time-varying by nature, so the
    whole registry snapshot *is* the data; identical consecutive
    snapshots (an idle daemon) still dedupe via the content key. These
    are excluded from the default (deterministic) trend output and
    queried with ``hfast obs trend --service``.
    """
    data = {"kind": "service", "metrics": dict(sorted(metrics_snapshot.items()))}
    meta = {"source": source, "timestamp": timestamp}
    if extra_meta:
        meta.update(extra_meta)
    return {"kind": "service", "key": content_key(data), "data": data, "meta": meta}


class HistoryStore:
    """Per-writer append-only segment of a history directory."""

    def __init__(
        self,
        root: str | os.PathLike,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self._lock = threading.Lock()
        self._wip: Path | None = None
        self._size = 0
        self.appended = 0

    def _open_segment(self) -> Path:
        wip = self.root / f"{WIP_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}.jsonl"
        wip.touch()
        return wip

    def append(self, snapshot: dict[str, Any]) -> str:
        """Append one snapshot; returns its content key."""
        key = snapshot.get("key") or content_key(snapshot.get("data"))
        line = json.dumps(snapshot, sort_keys=True) + "\n"
        payload = line.encode("utf-8")
        with self._lock:
            if self._wip is None:
                self._wip = self._open_segment()
                self._size = 0
            with open(self._wip, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
            self._size += len(payload)
            self.appended += 1
            if self._size >= self.max_segment_bytes:
                self._seal_locked()
        return key

    def _seal_locked(self) -> None:
        if self._wip is None or self._size == 0:
            if self._wip is not None and self._wip.exists() and self._size == 0:
                self._wip.unlink()
            self._wip = None
            return
        digest = hashlib.sha256(self._wip.read_bytes()).hexdigest()[:12]
        sealed = self.root / f"{SEGMENT_PREFIX}{digest}.jsonl"
        os.replace(self._wip, sealed)
        self._wip = None
        self._size = 0

    def seal(self) -> None:
        """Seal the open wip segment into its content-addressed name."""
        with self._lock:
            self._seal_locked()

    def close(self) -> None:
        self.seal()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _segment_files(root: Path) -> list[Path]:
    if not root.is_dir():
        return []
    return sorted(p for p in root.glob("*.jsonl") if p.is_file())


def read_history(
    root: str | os.PathLike, strict: bool = False, kinds: tuple[str, ...] | None = None
) -> list[dict[str, Any]]:
    """Load every snapshot in a history dir, deduped by content key.

    Sealed segments and in-progress/crashed ``wip-*`` segments are both
    read; malformed or truncated lines are skipped unless ``strict``.
    When several occurrences share a key (reruns, compaction overlap)
    the one with the smallest ``(meta.timestamp, meta)`` wins — a
    deterministic choice that keeps the earliest observation. The result
    is sorted by key, so downstream consumers see a canonical order
    independent of segment layout.
    """
    root = Path(root)
    best: dict[str, tuple[Any, dict[str, Any]]] = {}
    for seg in _segment_files(root):
        with open(seg, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    snap = json.loads(line)
                    if not isinstance(snap, dict) or "data" not in snap:
                        raise ValueError("not a snapshot object")
                except (json.JSONDecodeError, ValueError) as exc:
                    if strict:
                        raise ValueError(f"{seg}:{lineno}: malformed snapshot: {exc}") from exc
                    continue
                if kinds is not None and snap.get("kind") not in kinds:
                    continue
                key = snap.get("key") or content_key(snap["data"])
                snap["key"] = key
                meta = snap.get("meta") or {}
                rank = (
                    meta.get("timestamp") if isinstance(meta.get("timestamp"), (int, float)) else math.inf,
                    json.dumps(meta, sort_keys=True, default=str),
                )
                cur = best.get(key)
                if cur is None or rank < cur[0]:
                    best[key] = (rank, snap)
    return [snap for _key, (_rank, snap) in sorted(best.items())]


def compact(
    root: str | os.PathLike,
    retain: int | None = None,
    strict: bool = False,
) -> dict[str, Any]:
    """Merge + dedupe all segments into one sealed segment; drop originals.

    ``retain`` keeps only the newest N snapshots by ``meta.timestamp``
    (snapshots without a timestamp are treated as oldest). The merged
    replacement is fully written and sealed *before* the old segment
    files are removed, so a crash mid-compaction loses nothing — the
    next read just dedupes the overlap away.
    """
    root = Path(root)
    old_segments = _segment_files(root)
    snapshots = read_history(root, strict=strict)
    dropped = 0
    if retain is not None and len(snapshots) > retain:
        def ts(snap: dict[str, Any]) -> float:
            t = (snap.get("meta") or {}).get("timestamp")
            return float(t) if isinstance(t, (int, float)) else -math.inf

        keep = sorted(snapshots, key=lambda s: (ts(s), s["key"]))[-retain:]
        dropped = len(snapshots) - len(keep)
        snapshots = sorted(keep, key=lambda s: s["key"])

    body = "".join(json.dumps(s, sort_keys=True) + "\n" for s in snapshots)
    sealed: Path | None = None
    if body:
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]
        sealed = root / f"{SEGMENT_PREFIX}{digest}.jsonl"
        tmp = root / f"{WIP_PREFIX}compact-{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(body, encoding="utf-8")
        os.replace(tmp, sealed)
    for seg in old_segments:
        if sealed is None or seg != sealed:
            try:
                seg.unlink()
            except OSError:
                pass
    return {
        "segments_before": len(old_segments),
        "segments_after": 1 if sealed is not None else 0,
        "snapshots": len(snapshots),
        "dropped": dropped,
    }


# ---------------------------------------------------------------------------
# BENCH snapshot ingestion (the benchmarks/ perf trajectory)


def load_bench_snapshots(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Read ``BENCH_*.json`` perf-trajectory docs as history snapshots.

    Accepts a directory (scanned for ``BENCH_*.json``) or a single file.
    Unusable files (missing, invalid JSON, not a BENCH doc) are skipped,
    mirroring ``scripts/bench_compare.py``'s tolerance.
    """
    p = Path(path)
    candidates = sorted(p.glob("BENCH_*.json")) if p.is_dir() else [p]
    out: list[dict[str, Any]] = []
    for cand in candidates:
        try:
            doc = json.loads(cand.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            continue
        rows = [r for r in doc["runs"] if isinstance(r, dict) and r.get("app")]
        if not rows:
            continue
        data = {"kind": "bench", "results": rows, "metrics": {}}
        meta = {
            "source": "bench",
            "path": str(cand),
            "timestamp": _parse_bench_timestamp(doc.get("timestamp")),
            "git_sha": doc.get("git_sha"),
            "workers": doc.get("workers"),
            "backend": (doc.get("record") or {}).get("backend") if isinstance(doc.get("record"), dict) else None,
        }
        out.append({"kind": "bench", "key": content_key(data), "data": data, "meta": meta})
    return out


def _parse_bench_timestamp(ts: Any) -> float | None:
    if isinstance(ts, (int, float)):
        return float(ts)
    if isinstance(ts, str):
        import datetime as _dt

        try:
            return _dt.datetime.fromisoformat(ts.replace("Z", "+00:00")).timestamp()
        except ValueError:
            return None
    return None


# ---------------------------------------------------------------------------
# Trend queries


def histogram_quantile(hist: dict[str, Any], q: float) -> float | None:
    """Approximate quantile from a log2-bucket histogram ``to_dict``.

    Returns the smallest bucket upper edge whose cumulative count covers
    ``ceil(q * count)`` observations — deterministic, conservative (the
    true value is <= the returned edge), and exactly how IPM reads its
    message-size tables.
    """
    buckets = hist.get("buckets") or {}
    total = int(hist.get("count") or 0)
    if not buckets or total <= 0:
        return None
    target = max(1, math.ceil(min(max(q, 0.0), 1.0) * total))
    cumulative = 0
    for edge, cnt in sorted(((int(e), c) for e, c in buckets.items())):
        cumulative += cnt
        if cumulative >= target:
            return float(edge)
    return float(max(int(e) for e in buckets))


_TREND_COLUMNS = (
    "total_bytes",
    "total_messages",
    "max_degree",
    "coverage",
    "speedup",
    "pct_comm",
    "temporal_coverage",
    "temporal_speedup",
)


def trend_rows(
    snapshots: list[dict[str, Any]],
    app: str | None = None,
    nranks: int | None = None,
) -> list[dict[str, Any]]:
    """Cross-run trend: per (app, nranks), the deterministic column ranges.

    A pure function of snapshot *data* — no timestamps, sources, or
    segment layout involved — so its output is byte-identical no matter
    which backend or daemon wrote the history. Each column reports
    ``{"min", "max", "values"}`` over the distinct values observed;
    ``min == max`` means the metric has been stable across the recorded
    history, a widening range means a revision changed it.
    """
    grouped: dict[tuple[str, int], dict[str, set]] = {}
    observations: dict[tuple[str, int], int] = {}
    for snap in snapshots:
        for row in (snap.get("data") or {}).get("results") or []:
            a, n = row.get("app"), row.get("nranks")
            if a is None or n is None:
                continue
            if app is not None and a != app:
                continue
            if nranks is not None and int(n) != int(nranks):
                continue
            cell = (str(a), int(n))
            cols = grouped.setdefault(cell, {c: set() for c in _TREND_COLUMNS})
            observations[cell] = observations.get(cell, 0) + 1
            for c in _TREND_COLUMNS:
                v = row.get(c)
                if v is not None:
                    cols[c].add(v)
    rows = []
    for (a, n), cols in sorted(grouped.items()):
        row: dict[str, Any] = {"app": a, "nranks": n, "observations": observations[(a, n)]}
        for c in _TREND_COLUMNS:
            vals = sorted(cols[c])
            row[c] = (
                None
                if not vals
                else {"min": vals[0], "max": vals[-1], "values": len(vals)}
            )
        rows.append(row)
    return rows


def trend_quantiles(
    snapshots: list[dict[str, Any]], metric: str, quantiles: tuple[float, ...] = (0.5, 0.99)
) -> list[dict[str, Any]]:
    """Per-snapshot quantiles of a deterministic metrics histogram.

    Covers queries like "p99 call latency over the recorded history":
    each run snapshot carrying the named histogram contributes one row,
    ordered by content key (deterministic).
    """
    rows = []
    for snap in snapshots:
        hist = ((snap.get("data") or {}).get("metrics") or {}).get(metric)
        if not isinstance(hist, dict) or hist.get("type") != "histogram":
            continue
        row: dict[str, Any] = {"key": snap["key"][:12], "count": hist.get("count", 0)}
        for q in quantiles:
            row[f"p{int(q * 100)}"] = histogram_quantile(hist, q)
        rows.append(row)
    return sorted(rows, key=lambda r: r["key"])


def _fmt_cell(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, dict):
        lo, hi = v.get("min"), v.get("max")
        if lo == hi:
            return _fmt_cell(lo)
        return f"{_fmt_cell(lo)}..{_fmt_cell(hi)}"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def render_trend(rows: list[dict[str, Any]]) -> str:
    """Fixed-width trend table; line-for-line deterministic."""
    headers = ["app", "nranks", "n", "bytes", "msgs", "maxdeg", "coverage",
               "speedup", "pct_comm", "tcov", "tspeedup"]
    cols = ["app", "nranks", "observations", "total_bytes", "total_messages",
            "max_degree", "coverage", "speedup", "pct_comm",
            "temporal_coverage", "temporal_speedup"]
    table = [headers] + [
        [_fmt_cell(r.get(c)) for c in cols] for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))).rstrip())
    return "\n".join(lines) + "\n"
