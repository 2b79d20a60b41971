"""IPM-style run report.

Builds a per-app, per-scale summary (call totals, communication volume,
message-size distribution, top peers, topology degree, hybrid-interconnect
evaluation) plus a per-stage wall-time profile, entirely from the
structured event stream emitted during a run. Rendered as markdown for
humans and JSON for machines; the JSON is also written as a
``BENCH_<shortsha>.json`` file for cross-PR perf-trajectory tracking.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from typing import Any

from hfast.obs.analytics import TraceTree, attribution, critical_path, stage_rollup

REPORT_VERSION = 1


def bench_run_rows(runs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Project per-app summaries onto the ``BENCH_*.json`` row shape.

    Every field here is deterministic (no wall clocks), so two BENCH
    documents of the same inputs carry the same rows.
    """
    return [
        {
            "app": r.get("app"),
            "nranks": r.get("nranks"),
            "total_bytes": r.get("total_bytes"),
            "total_messages": r.get("total_messages"),
            "max_degree": (r.get("topology") or {}).get("max_degree"),
            "coverage": (r.get("interconnect") or {}).get("coverage"),
            "speedup": (r.get("interconnect") or {}).get("speedup"),
            "pct_comm": (r.get("timing") or {}).get("pct_comm"),
            "temporal_coverage": (r.get("interconnect_temporal") or {}).get("coverage"),
            "temporal_speedup": (r.get("interconnect_temporal") or {}).get("speedup"),
        }
        for r in runs
    ]


def build_report(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a JSONL event stream into the run-report document."""
    manifest: dict[str, Any] | None = None
    runs: list[dict[str, Any]] = []
    anomalies: list[dict[str, Any]] = []
    frontiers: list[dict[str, Any]] = []
    stage_wall: dict[str, float] = defaultdict(float)
    stage_calls: dict[str, int] = defaultdict(int)
    peak_rss = 0

    # Trace-tree bookkeeping (span_id/parent_id/depth) rides along on
    # merged non-span events; it identifies positions in one specific
    # trace, not analysis content, so the report drops it.
    structural = {"event", "span_id", "parent_id", "depth"}
    for ev in events:
        kind = ev.get("event")
        if kind == "manifest":
            manifest = {k: v for k, v in ev.items() if k != "event"}
        elif kind == "app_summary":
            runs.append({k: v for k, v in ev.items() if k not in structural})
        elif kind == "anomaly":
            anomalies.append({k: v for k, v in ev.items() if k not in structural})
        elif kind == "dse_frontier":
            frontiers.append({k: v for k, v in ev.items() if k not in structural})
        elif kind == "span":
            stage_wall[ev["name"]] += ev.get("wall_s", 0.0)
            stage_calls[ev["name"]] += 1
            peak_rss = max(peak_rss, ev.get("peak_rss_kb", 0))

    total_wall = sum(w for name, w in stage_wall.items() if name == "pipeline") or sum(
        stage_wall.values()
    )
    stages = [
        {
            "stage": name,
            "calls": stage_calls[name],
            "wall_s": round(wall, 6),
            "pct": round(100.0 * wall / total_wall, 2) if total_wall else 0.0,
        }
        for name, wall in sorted(stage_wall.items(), key=lambda kv: -kv[1])
    ]
    cells = list((manifest or {}).get("cells") or [])
    return {
        "report_version": REPORT_VERSION,
        "manifest": manifest,
        "runs": runs,
        "anomalies": anomalies,
        # Design-space search results (one entry per dse_frontier event):
        # the full frontier artifact document, byte-identical across
        # scheduler backends by the DSE determinism contract.
        "frontiers": frontiers,
        "profile": {
            "total_wall_s": round(total_wall, 6),
            "peak_rss_kb": peak_rss,
            "stages": stages,
            "cells": cells,
        },
        # Wall-clock-derived by construction (like wall_s/pct), so excluded
        # from the byte-identity determinism contract alongside them.
        "time_breakdown": _time_breakdown(events),
    }


def _time_breakdown(events: list[dict[str, Any]]) -> dict[str, Any] | None:
    """'Where the time went': critical path, self-time, scheduler share."""
    tree = TraceTree(events, warn=lambda _msg: None)
    if tree.empty:
        return None
    attr = attribution(tree)
    return {
        "critical_path": [
            {"label": e["label"], "wall_s": e["wall_s"], "self_s": e["self_s"]}
            for e in critical_path(tree)[:8]
        ],
        "top_self_stages": stage_rollup(tree)[:8],
        "queue_wait_share": attr["queue_wait_share"] if attr else None,
        "utilization": attr["utilization"] if attr else None,
        "lanes": len(attr["lanes"]) if attr else None,
    }


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} TiB"


def render_markdown(report: dict[str, Any]) -> str:
    lines: list[str] = ["# hfast run report", ""]
    man = report.get("manifest")
    if man:
        lines += [
            f"- **git SHA:** `{man.get('git_sha', 'unknown')}`",
            f"- **timestamp:** {man.get('timestamp', '?')}",
            f"- **python:** {man.get('python', '?')} on {man.get('platform', '?')}",
            f"- **apps:** {', '.join(man.get('apps', []))}",
        ]
        cache = man.get("cache")
        if cache:
            lines.append(
                f"- **cache:** {cache.get('hits', 0)} hits / "
                f"{cache.get('misses', 0)} misses / {cache.get('stores', 0)} stores"
            )
        if man.get("workers", 1) and man.get("workers", 1) > 1:
            lines.append(f"- **workers:** {man['workers']}")
        shard = man.get("shard")
        if shard:
            lines.append(f"- **shard:** {shard['index']}/{shard['count']}")
        failed = man.get("failed_cells") or []
        if failed:
            lines.append(f"- **failed cells:** {', '.join(failed)}")
        sched = man.get("scheduler") or {}
        if sched.get("backend") and sched["backend"] != "static":
            lines.append(f"- **scheduler:** {sched['backend']} (run `{sched.get('run_id', '?')}`)")
        lines.append("")

    for run in report.get("runs", []):
        app, nranks = run.get("app", "?"), run.get("nranks", "?")
        lines.append(f"## {app} @ {nranks} ranks")
        lines.append("")
        lines.append(
            f"- point-to-point volume: {_fmt_bytes(run.get('total_bytes', 0))} "
            f"in {run.get('total_messages', 0)} messages "
            f"over {run.get('nonzero_links', 0)} links"
        )
        topo = run.get("topology", {})
        lines.append(
            f"- topology degree: max {topo.get('max_degree', '?')}, "
            f"avg {topo.get('avg_degree', '?')}"
        )
        conc = topo.get("concentration", {})
        if conc:
            parts = [f"top-{k}: {100 * float(v):.0f}%" for k, v in sorted(conc.items(), key=lambda kv: int(kv[0]))]
            lines.append(f"- traffic concentration: {', '.join(parts)}")
        ic = run.get("interconnect", {})
        if ic:
            lines.append(
                f"- hybrid interconnect: {100 * ic.get('coverage', 0):.1f}% of bytes on "
                f"{ic.get('n_circuits', 0)} circuits "
                f"({'fully' if ic.get('fully_provisionable') else 'partially'} provisionable), "
                f"{ic.get('speedup', 1.0)}x vs packet-only"
            )
        tmp = run.get("interconnect_temporal", {})
        if tmp:
            lines.append(
                f"- temporal assignment ({tmp.get('timesteps', 1)} steps): "
                f"{100 * tmp.get('coverage', 0):.1f}% coverage "
                f"(static {100 * tmp.get('static_coverage', 0):.1f}%), "
                f"{tmp.get('n_reconfigs', 0)} reconfigs, "
                f"{tmp.get('speedup', 1.0)}x vs packet-only"
            )
        tim = run.get("timing", {})
        if tim:
            lines.append(
                f"- timing (seed {tim.get('seed', 0)}): "
                f"{tim.get('pct_comm', 0.0):.1f}% communication "
                f"({tim.get('comm_time_s', 0.0):.4f} s comm vs "
                f"{tim.get('compute_time_s', 0.0):.4f} s compute per rank)"
            )
        lines.append("")

        totals = run.get("call_totals", {})
        if totals:
            lines.append("| MPI call | count | % of calls |")
            lines.append("|---|---:|---:|")
            call_sum = sum(totals.values())
            for call, cnt in sorted(totals.items(), key=lambda kv: -kv[1]):
                lines.append(f"| {call} | {cnt} | {100 * cnt / call_sum:.1f}% |")
            lines.append("")

        buckets = run.get("size_buckets", {})
        if buckets:
            lines.append("| msg size bucket | messages |")
            lines.append("|---|---:|")
            for edge, cnt in sorted(buckets.items(), key=lambda kv: int(kv[0])):
                lines.append(f"| <= {_fmt_bytes(int(edge))} | {cnt} |")
            lines.append("")

        lat_buckets = (run.get("timing") or {}).get("latency_buckets", {})
        if lat_buckets:
            lines.append("| call latency bucket | calls |")
            lines.append("|---|---:|")
            for edge, cnt in sorted(lat_buckets.items(), key=lambda kv: int(kv[0])):
                lines.append(f"| <= {int(edge)} µs | {cnt} |")
            lines.append("")

        peers = run.get("top_peers", [])
        if peers:
            lines.append("| rank | heaviest peer | volume |")
            lines.append("|---:|---:|---:|")
            for entry in peers:
                lines.append(
                    f"| {entry['rank']} | {entry['peer']} | {_fmt_bytes(entry['bytes'])} |"
                )
            lines.append("")

    for fr in report.get("frontiers") or []:
        wl = fr.get("workload") or {}
        lines.append("## Design-space frontier")
        lines.append("")
        lines += [
            f"- **workload:** {wl.get('app', '?')} @ {wl.get('nranks', '?')} ranks",
            f"- **strategy:** {fr.get('strategy', '?')} (seed {fr.get('seed', 0)})",
            f"- **search key:** `{fr.get('search_key', '?')}` "
            f"(space `{fr.get('space_key', '?')}`)",
            f"- **candidates:** {fr.get('evaluated', 0)} evaluated, "
            f"{len(fr.get('frontier') or [])} on the frontier, "
            f"{fr.get('dominated', 0)} dominated, "
            f"{len(fr.get('failed') or [])} failed",
            "",
        ]
        points = fr.get("frontier") or []
        if points:
            lines.append(
                "| id | circuits | reconfig cost (s) | steps "
                "| coverage | packet bytes | reconfig (s) | eval cost |"
            )
            lines.append("|---:|---:|---:|---:|---:|---:|---:|---:|")
            for p in points:
                cand = p.get("candidate") or {}
                objs = p.get("objectives") or {}
                lines.append(
                    f"| {p.get('id', '?')} | {cand.get('circuits_per_node', '?')} "
                    f"| {cand.get('reconfig_cost', 0):g} "
                    f"| {cand.get('timesteps', '?')} "
                    f"| {100 * objs.get('coverage', 0):.1f}% "
                    f"| {_fmt_bytes(objs.get('packet_bytes', 0))} "
                    f"| {objs.get('reconfig_s', 0):g} "
                    f"| {objs.get('eval_cost', 0):.1f} |"
                )
            lines.append("")

    anomalies = report.get("anomalies") or []
    if anomalies:
        lines.append("## Anomalies")
        lines.append("")
        lines.append("| cell | kind | wall (s) | expected (s) | ratio | attempts |")
        lines.append("|---|---|---:|---:|---:|---:|")
        for a in anomalies:
            lines.append(
                f"| {a.get('cell', '?')} | {a.get('kind', '?')} "
                f"| {a.get('wall_s', 0):.4f} | {a.get('expected_s', 0):.4f} "
                f"| {a.get('ratio', 0):.2f}x | {a.get('attempts', 1)} |"
            )
        lines.append("")

    tb = report.get("time_breakdown")
    if tb:
        lines.append("## Where the time went")
        lines.append("")
        share = tb.get("queue_wait_share")
        util = tb.get("utilization")
        if share is not None or util is not None:
            parts = []
            if util is not None:
                parts.append(f"worker utilization {100 * util:.0f}%")
            if share is not None:
                parts.append(f"queue-wait share {100 * share:.0f}%")
            if tb.get("lanes"):
                parts.append(f"{tb['lanes']} execution lane(s)")
            lines.append("Scheduler attribution: " + ", ".join(parts) + ".")
            lines.append("")
        cp = tb.get("critical_path") or []
        if cp:
            lines.append("Critical path (heaviest span chain):")
            lines.append("")
            lines.append("| span | wall (s) | self (s) |")
            lines.append("|---|---:|---:|")
            for e in cp:
                lines.append(f"| {e['label']} | {e['wall_s']:.4f} | {e['self_s']:.4f} |")
            lines.append("")
        top = tb.get("top_self_stages") or []
        if top:
            lines.append("Top stages by self time:")
            lines.append("")
            lines.append("| stage | calls | self (s) | % of run |")
            lines.append("|---|---:|---:|---:|")
            for st in top:
                lines.append(
                    f"| {st['stage']} | {st['calls']} | {st['self_s']:.4f} "
                    f"| {st['pct_self']:.1f} |"
                )
            lines.append("")

    prof = report.get("profile", {})
    stages = prof.get("stages", [])
    if stages:
        lines.append("## Stage profile")
        lines.append("")
        lines.append(
            f"Total wall: {prof.get('total_wall_s', 0):.4f} s · "
            f"peak RSS: {prof.get('peak_rss_kb', 0)} KiB"
        )
        lines.append("")
        lines.append("| stage | calls | wall (s) | % |")
        lines.append("|---|---:|---:|---:|")
        for st in stages:
            lines.append(
                f"| {st['stage']} | {st['calls']} | {st['wall_s']:.4f} | {st['pct']:.1f} |"
            )
        lines.append("")
    cells = prof.get("cells", [])
    if cells:
        lines.append("## Cell timings")
        lines.append("")
        lines.append("| cell | status | attempts | wall (s) |")
        lines.append("|---|---|---:|---:|")
        for c in cells:
            status = "ok" if c.get("ok") else f"FAILED: {c.get('error', '?')}"
            lines.append(
                f"| {c['app']}_p{c['nranks']} | {status} | {c.get('attempts', 1)} "
                f"| {c.get('wall_s', 0):.4f} |"
            )
        lines.append("")

    sched = (report.get("manifest") or {}).get("scheduler") or {}
    if sched.get("backend") == "stealing":
        lines.append("## Scheduler")
        lines.append("")
        lines += [
            f"- **backend:** work-stealing, run `{sched.get('run_id', '?')}`"
            + (" (resumed)" if sched.get("resumed") else ""),
            f"- **workers:** {sched.get('workers', '?')} requested, "
            f"{sched.get('workers_spawned', '?')} spawned, "
            f"{sched.get('workers_lost', 0)} lost",
            f"- **queue:** {sched.get('tasks_dispatched', 0)} dispatches, "
            f"{sched.get('steals', 0)} steals, max depth {sched.get('max_queue_depth', 0)}",
            f"- **recovery:** {sched.get('retries', 0)} retries, "
            f"{sched.get('redispatches', 0)} re-dispatches, "
            f"{sched.get('cells_from_journal', 0)} cells replayed from journal",
        ]
        if sched.get("journal"):
            lines.append(f"- **journal:** `{sched['journal']}`")
        lines.append("")
    return "\n".join(lines)


def write_report(
    report: dict[str, Any],
    out_dir: str | os.PathLike,
    bench_dir: str | os.PathLike | None = None,
) -> dict[str, Path]:
    """Write report.md + report.json (and a BENCH_*.json when bench_dir set)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    json_path = out / "report.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["json"] = json_path

    md_path = out / "report.md"
    md_path.write_text(render_markdown(report), encoding="utf-8")
    paths["markdown"] = md_path

    if bench_dir is not None:
        man = report.get("manifest") or {}
        sha = (man.get("git_sha") or "unknown")[:12]
        bench = Path(bench_dir)
        bench.mkdir(parents=True, exist_ok=True)
        bench_path = bench / f"BENCH_{sha}.json"
        bench_doc = {
            "report_version": report["report_version"],
            "git_sha": man.get("git_sha"),
            "timestamp": man.get("timestamp"),
            "workers": man.get("workers", 1),
            "profile": report.get("profile"),
            "runs": bench_run_rows(report.get("runs", [])),
        }
        with open(bench_path, "w", encoding="utf-8") as fh:
            json.dump(bench_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["bench"] = bench_path
    return paths
