"""Post-mortem analytics over the unified JSONL trace tree.

PR 5 made every run emit one span tree (the serial and stealing
backends produce the same shape); this module is the analysis layer
the paper's methodology actually needs on top of it:

- :func:`load_events` — tolerant loader for one ``--trace-out`` file or
  scheduler run journal (a directory picks the newest journal); neither
  is ever rotated into a chain of files. A truncated final line —
  exactly what a crash mid-write leaves behind — is warned about and
  skipped, never fatal.
- :class:`TraceTree` — spans linked into a tree, plus the non-span
  events (manifest, ``cell_timing``, anomalies) analytics cares about.
  Orphaned spans (their parent never made it to disk) are promoted to
  roots rather than dropped.
- :func:`critical_path` — the heaviest root-to-leaf chain. Weighted by
  wall time by default; ``weight="cost"`` uses the scheduler's analytic
  cost model instead, which is a pure function of the tree shape — the
  same trace shape yields the same path on every backend and every
  machine.
- :func:`stage_rollup` — per-stage calls / total / *self* time (wall
  minus child walls), the flamegraph's ground truth.
- :func:`attribution` — scheduler attribution from ``cell_timing``
  events: queue-wait vs execute vs retry time per cell, worker lanes,
  and a busy-lane utilization timeline.
- :func:`render_gantt` / :func:`diff_traces` / :func:`summarize` — the
  renderers behind ``hfast trace gantt|diff|summary``.

Everything here is read-only over an existing trace; nothing feeds back
into the determinism contract.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from hfast.sched.cost import estimate_cell_cost

CRITICAL_PATH_WEIGHTS = ("wall", "cost")


class TraceError(ValueError):
    """A trace source could not be loaded or holds no usable events."""


def _warn_stderr(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def load_events(
    source: str | Path,
    strict: bool = False,
    warn: Callable[[str], None] | None = None,
) -> list[dict[str, Any]]:
    """Load trace events from a JSONL trace, a run journal, or a journal dir.

    A directory resolves to its newest ``*.jsonl`` file. Journal files
    (first record ``kind == "run"``) are reconstructed into the merged
    event shape a live run would have produced, via the same grafting
    code the pipeline uses.

    Tolerance contract: a truncated *final* line (crash mid-write, e.g.
    under fault injection) is always skipped with a warning. Other
    malformed lines are skipped with a warning unless ``strict=True``.
    """
    warn = warn or _warn_stderr
    path = Path(source)
    if path.is_dir():
        candidates = sorted(path.glob("*.jsonl"), key=lambda p: (p.stat().st_mtime, p.name))
        if not candidates:
            raise TraceError(f"{path}: no .jsonl trace or journal files in directory")
        path = candidates[-1]
    if not path.is_file():
        raise TraceError(f"{path}: no such trace file")

    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TraceError(f"{path}: {exc}") from exc
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            rec = json.loads(stripped)
            if not isinstance(rec, dict):
                raise json.JSONDecodeError("not an object", stripped, 0)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                warn(f"{path}:{lineno}: ignoring truncated final line")
                continue
            if strict:
                raise TraceError(f"{path}:{lineno}: malformed JSONL line: {exc}") from exc
            warn(f"{path}:{lineno}: skipping malformed line")
            continue
        records.append(rec)

    if records and records[0].get("kind") == "run":
        return events_from_journal(records)
    return records


def events_from_journal(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Reconstruct merged trace events from run-journal records.

    Replays each journaled cell result through the pipeline's own graft
    logic under a synthetic ``pipeline`` root, so journal-derived trees
    have the exact shape of a live trace (run-level wall times are not
    recorded in journals and come back as ~0).
    """
    # Imported lazily: pipeline imports the obs package, and this module
    # is re-exported from it — a top-level import would be circular.
    from hfast.obs.profile import Observability
    from hfast.pipeline import cell_timing_event, graft_cell

    completed: dict[int, dict[str, Any]] = {}
    for rec in records:
        if rec.get("kind") == "cell_done" and isinstance(rec.get("result"), dict):
            completed[int(rec["index"])] = rec
    obs = Observability(enabled=True)
    with obs.tracer.span("pipeline", ncells=len(completed)) as sp:
        root_id = sp.span_id
    for index in sorted(completed):
        rec = completed[index]
        res = dict(rec["result"])
        res.setdefault("attempts", int(rec.get("attempts", 1)))
        graft_cell(obs, res, root_id)
        if res.get("t_start") is not None:
            obs.tracer.emit_event("cell_timing", cell_timing_event(res))
    return obs.events


@dataclass
class SpanNode:
    """One span event, linked into the trace tree."""

    span_id: int
    name: str
    parent_id: int | None
    depth: int
    wall_s: float
    attrs: dict[str, Any]
    error: str | None = None
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Display name with the cell identity attached when present."""
        app, nranks = self.attrs.get("app"), self.attrs.get("nranks")
        if app is not None and nranks is not None:
            return f"{self.name}[{app}_p{nranks}]"
        return self.name

    @property
    def self_s(self) -> float:
        """Wall time not accounted for by child spans (clamped at 0)."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))


class TraceTree:
    """Span events linked into a tree, plus the sidecar events."""

    def __init__(self, events: list[dict[str, Any]], warn: Callable[[str], None] | None = None):
        warn = warn or _warn_stderr
        self.events = events
        self.nodes: dict[int, SpanNode] = {}
        self.roots: list[SpanNode] = []
        self.manifest: dict[str, Any] | None = None
        self.cell_timings: list[dict[str, Any]] = []
        self.anomalies: list[dict[str, Any]] = []
        self.sched_tasks: list[dict[str, Any]] = []

        for ev in events:
            kind = ev.get("event")
            if kind == "span":
                try:
                    node = SpanNode(
                        span_id=int(ev["span_id"]),
                        name=str(ev.get("name", "?")),
                        parent_id=ev.get("parent_id"),
                        depth=int(ev.get("depth", 0)),
                        wall_s=float(ev.get("wall_s", 0.0)),
                        attrs=dict(ev.get("attrs") or {}),
                        error=ev.get("error"),
                    )
                except (KeyError, TypeError, ValueError):
                    warn("skipping malformed span event")
                    continue
                if node.span_id in self.nodes:
                    warn(f"duplicate span id {node.span_id}; keeping the first")
                    continue
                self.nodes[node.span_id] = node
            elif kind == "manifest":
                # The final manifest re-emit carries cells; last one wins.
                self.manifest = ev
            elif kind == "cell_timing":
                self.cell_timings.append(ev)
            elif kind == "anomaly":
                self.anomalies.append(ev)
            elif kind == "sched_task":
                self.sched_tasks.append(ev)

        for node in self.nodes.values():
            parent = self.nodes.get(node.parent_id) if node.parent_id is not None else None
            if parent is None:
                if node.parent_id is not None:
                    warn(f"span {node.span_id} has dangling parent {node.parent_id}; treating as root")
                self.roots.append(node)
            else:
                parent.children.append(node)
        # Emission order interleaves subtrees (children are flushed before
        # their parent); span ids are the deterministic tree order.
        for node in self.nodes.values():
            node.children.sort(key=lambda n: n.span_id)
        self.roots.sort(key=lambda n: n.span_id)

    @classmethod
    def load(cls, source: str | Path, strict: bool = False,
             warn: Callable[[str], None] | None = None) -> "TraceTree":
        return cls(load_events(source, strict=strict, warn=warn), warn=warn)

    @property
    def empty(self) -> bool:
        return not self.nodes

    @property
    def root(self) -> SpanNode | None:
        """The run root: the ``pipeline`` span when present, else the heaviest root."""
        if not self.roots:
            return None
        for node in self.roots:
            if node.name == "pipeline":
                return node
        return max(self.roots, key=lambda n: (n.wall_s, -n.span_id))

    def walk(self) -> list[SpanNode]:
        """All nodes, depth-first from the roots, children in span-id order."""
        out: list[SpanNode] = []
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def cells(self) -> list[SpanNode]:
        return [n for n in self.walk() if n.name == "cell"]


# ---------------------------------------------------------------------------
# Critical path


def _cost_weight(node: SpanNode) -> float:
    app, nranks = node.attrs.get("app"), node.attrs.get("nranks")
    if app is None or nranks is None:
        return 0.0
    try:
        return estimate_cell_cost(str(app), int(nranks))
    except (TypeError, ValueError):
        return 0.0


def critical_path(
    tree: TraceTree, weight: str = "wall", start: SpanNode | None = None
) -> list[dict[str, Any]]:
    """The heaviest chain of spans from the run root down to a leaf.

    ``weight="wall"`` descends into the child with the largest wall time
    — the true critical path for this run. ``weight="cost"`` descends by
    the analytic cost model over each subtree's (app, nranks) attrs: a
    pure function of the tree shape, so traces with the same shape (all
    backends of the same sweep) yield the same path with the same
    weights. Ties break to the lowest span id, which is deterministic
    because the merged trace numbers spans in cell order.
    """
    if weight not in CRITICAL_PATH_WEIGHTS:
        raise ValueError(f"unknown weight '{weight}' (expected one of {CRITICAL_PATH_WEIGHTS})")
    node = start if start is not None else tree.root
    if node is None:
        return []

    if weight == "cost":
        subtree_cost: dict[int, float] = {}
        for n in reversed(tree.walk()):  # children before parents
            subtree_cost[n.span_id] = max(
                _cost_weight(n),
                max((subtree_cost[c.span_id] for c in n.children), default=0.0),
            )

    path: list[dict[str, Any]] = []
    while node is not None:
        w = subtree_cost[node.span_id] if weight == "cost" else node.wall_s
        path.append(
            {
                "label": node.label,
                "name": node.name,
                "span_id": node.span_id,
                "depth": node.depth,
                "wall_s": round(node.wall_s, 6),
                "self_s": round(node.self_s, 6),
                "weight": round(w, 6),
                "error": node.error,
            }
        )
        if not node.children:
            break
        if weight == "cost":
            node = min(node.children, key=lambda c: (-subtree_cost[c.span_id], c.span_id))
        else:
            node = min(node.children, key=lambda c: (-c.wall_s, c.span_id))
    return path


def cell_critical_paths(tree: TraceTree, weight: str = "wall") -> dict[str, list[dict[str, Any]]]:
    """Per-cell critical path, keyed by ``{app}_p{nranks}``."""
    out: dict[str, list[dict[str, Any]]] = {}
    for cell in tree.cells():
        app, nranks = cell.attrs.get("app"), cell.attrs.get("nranks")
        key = f"{app}_p{nranks}" if app is not None else f"cell_{cell.span_id}"
        out[key] = critical_path(tree, weight=weight, start=cell)
    return out


# ---------------------------------------------------------------------------
# Self-time rollup


def stage_rollup(tree: TraceTree) -> list[dict[str, Any]]:
    """Per-stage calls / total wall / self wall, heaviest self-time first.

    Total counts each span's full wall (so nested stages overlap); self
    time partitions the run wall exactly, which is what a flamegraph and
    a "where did the time go" table need.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    for node in tree.walk():
        calls[node.name] = calls.get(node.name, 0) + 1
        total[node.name] = total.get(node.name, 0.0) + node.wall_s
        self_t[node.name] = self_t.get(node.name, 0.0) + node.self_s
    # Journal-derived trees hang real cells under a synthetic ~0-wall
    # root; fall back to the self-time sum so percentages stay sane.
    run_wall = tree.root.wall_s if tree.root is not None else 0.0
    run_wall = max(run_wall, sum(self_t.values()))
    rows = [
        {
            "stage": name,
            "calls": calls[name],
            "total_s": round(total[name], 6),
            "self_s": round(self_t[name], 6),
            "pct_self": round(100.0 * self_t[name] / run_wall, 2) if run_wall > 0 else 0.0,
        }
        for name in calls
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["stage"]))
    return rows


# ---------------------------------------------------------------------------
# Scheduler attribution (cell_timing events)


def _lane(ct: dict[str, Any]) -> str:
    if ct.get("worker") is not None:
        return f"w{ct['worker']}"
    if ct.get("pid") is not None:
        return f"pid{ct['pid']}"
    return "w0"


def attribution(tree: TraceTree, buckets: int = 20) -> dict[str, Any] | None:
    """Queue-wait / execute / retry attribution plus lane utilization.

    Built from the run's ``cell_timing`` events (absolute start/end
    stamps recorded per cell at merge time). Returns ``None`` on traces
    that predate those events.
    """
    cts = [
        ct for ct in tree.cell_timings
        if isinstance(ct.get("t_start"), (int, float)) and isinstance(ct.get("t_end"), (int, float))
    ]
    if not cts:
        return None
    t0 = min(ct["t_start"] for ct in cts)
    t_end = max(ct["t_end"] for ct in cts)
    span_s = max(0.0, t_end - t0)

    # Failed earlier attempts of a retried cell: execution time that was
    # spent but produced nothing (the sched_task events carry per-attempt
    # walls; the final attempt's wall is the cell's own).
    retry_exec: dict[str, float] = {}
    for ev in tree.sched_tasks:
        if not ev.get("ok"):
            key = ev.get("cell", "?")
            retry_exec[key] = retry_exec.get(key, 0.0) + float(ev.get("wall_s", 0.0))

    def cell_key(ct: dict[str, Any]) -> str:
        return f"{ct.get('app')}_p{ct.get('nranks')}"

    cells = []
    for ct in sorted(cts, key=lambda c: (c["t_start"], cell_key(c))):
        start = ct["t_start"] - t0
        wall = max(0.0, ct["t_end"] - ct["t_start"])
        key = cell_key(ct)
        cells.append(
            {
                "cell": key,
                "lane": _lane(ct),
                "start_s": round(start, 6),
                "wall_s": round(wall, 6),
                "queue_wait_s": round(start, 6),
                "retry_exec_s": round(retry_exec.get(key, 0.0), 6),
                "attempts": ct.get("attempts", 1),
                "ok": ct.get("ok", True),
            }
        )

    lanes = sorted({c["lane"] for c in cells})
    total_exec = sum(c["wall_s"] for c in cells)
    total_wait = sum(c["queue_wait_s"] for c in cells)
    total_retry = sum(retry_exec.values())
    utilization = total_exec / (len(lanes) * span_s) if span_s > 0 and lanes else None

    timeline = []
    if span_s > 0:
        width = span_s / buckets
        for i in range(buckets):
            lo, hi = t0 + i * width, t0 + (i + 1) * width
            busy = sum(1 for ct in cts if ct["t_start"] < hi and ct["t_end"] > lo)
            timeline.append(busy)

    denom = total_wait + total_exec
    return {
        "lanes": lanes,
        "span_s": round(span_s, 6),
        "total_execute_s": round(total_exec, 6),
        "total_queue_wait_s": round(total_wait, 6),
        "total_retry_exec_s": round(total_retry, 6),
        "queue_wait_share": round(total_wait / denom, 4) if denom > 0 else 0.0,
        "utilization": round(utilization, 4) if utilization is not None else None,
        "busy_timeline": timeline,
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Renderers


def render_gantt(tree: TraceTree, width: int = 60) -> str:
    """ASCII gantt of cell execution windows, one row per cell."""
    attr = attribution(tree)
    if attr is None or not attr["cells"]:
        return "no cell_timing events in this trace (pre-analytics run?)"
    span = attr["span_s"] or 1.0
    name_w = max(len(c["cell"]) for c in attr["cells"])
    lane_w = max(len(c["lane"]) for c in attr["cells"])
    lines = [
        f"{len(attr['cells'])} cells over {attr['span_s']:.3f}s on "
        f"{len(attr['lanes'])} lane(s); utilization "
        + (f"{attr['utilization']:.0%}" if attr["utilization"] is not None else "n/a")
    ]
    for c in attr["cells"]:
        off = int(round(width * c["start_s"] / span))
        length = max(1, int(round(width * c["wall_s"] / span)))
        off = min(off, width - 1)
        length = min(length, width - off)
        bar = " " * off + ("#" if c["ok"] else "!") * length
        mark = "" if c["ok"] else "  FAILED"
        retry = f" r{c['attempts']}" if c.get("attempts", 1) > 1 else ""
        lines.append(
            f"{c['cell']:<{name_w}} {c['lane']:<{lane_w}} "
            f"|{bar:<{width}}| {c['wall_s']:.3f}s{retry}{mark}"
        )
    return "\n".join(lines)


def diff_traces(tree_a: TraceTree, tree_b: TraceTree) -> dict[str, Any]:
    """Stage and cell wall-time deltas between two traces (A = baseline)."""

    def pct(a: float, b: float) -> float | None:
        return round(100.0 * (b - a) / a, 1) if a > 0 else None

    roll_a = {r["stage"]: r for r in stage_rollup(tree_a)}
    roll_b = {r["stage"]: r for r in stage_rollup(tree_b)}
    stages = []
    for name in sorted(set(roll_a) | set(roll_b)):
        a, b = roll_a.get(name), roll_b.get(name)
        stages.append(
            {
                "stage": name,
                "a_total_s": a["total_s"] if a else None,
                "b_total_s": b["total_s"] if b else None,
                "a_calls": a["calls"] if a else 0,
                "b_calls": b["calls"] if b else 0,
                "delta_pct": pct(a["total_s"], b["total_s"]) if a and b else None,
            }
        )

    def cell_walls(tree: TraceTree) -> dict[str, float]:
        return {
            f"{n.attrs.get('app')}_p{n.attrs.get('nranks')}": n.wall_s for n in tree.cells()
        }

    walls_a, walls_b = cell_walls(tree_a), cell_walls(tree_b)
    cells = []
    for key in sorted(set(walls_a) | set(walls_b)):
        a_w, b_w = walls_a.get(key), walls_b.get(key)
        cells.append(
            {
                "cell": key,
                "a_wall_s": round(a_w, 6) if a_w is not None else None,
                "b_wall_s": round(b_w, 6) if b_w is not None else None,
                "delta_pct": pct(a_w, b_w) if a_w is not None and b_w is not None else None,
            }
        )

    root_a = tree_a.root.wall_s if tree_a.root else 0.0
    root_b = tree_b.root.wall_s if tree_b.root else 0.0
    return {
        "a_wall_s": round(root_a, 6),
        "b_wall_s": round(root_b, 6),
        "wall_delta_pct": pct(root_a, root_b),
        "stages": stages,
        "cells": cells,
        "a_critical_path": [e["label"] for e in critical_path(tree_a)],
        "b_critical_path": [e["label"] for e in critical_path(tree_b)],
    }


def summarize(tree: TraceTree, top: int = 5) -> dict[str, Any]:
    """The ``hfast trace summary`` document (also feeds the run report)."""
    man = tree.manifest or {}
    sched = man.get("scheduler") or {}
    by_kind: dict[str, int] = {}
    for a in tree.anomalies:
        by_kind[a.get("kind", "?")] = by_kind.get(a.get("kind", "?"), 0) + 1
    return {
        "spans": len(tree.nodes),
        "cells": len(tree.cells()),
        "failed_cells": list(man.get("failed_cells") or []),
        "scheduler": sched.get("backend"),
        "workers": man.get("workers"),
        "total_wall_s": max(
            round(tree.root.wall_s, 6) if tree.root else 0.0,
            round(sum(n.self_s for n in tree.walk()), 6),
        ),
        "critical_path": critical_path(tree)[:top],
        "stages": stage_rollup(tree)[:top],
        "attribution": attribution(tree),
        "anomalies": by_kind,
    }
