"""Persistent telemetry history: segments, dedupe, compaction, trends.

The load-bearing contract is determinism: a history snapshot's ``data``
(and therefore its content key) is a pure function of the analyzed work,
so identical work on any scheduler backend dedupes to one snapshot and
``hfast obs trend`` renders byte-identical output no matter who wrote
the history. Appending history must also be a pure side channel — run
artifacts are byte-identical history-on vs history-off.
"""

import json

import pytest

from hfast.obs import history as hist
from hfast.obs.history import (
    SEGMENT_PREFIX,
    WIP_PREFIX,
    HistoryStore,
    compact,
    content_key,
    histogram_quantile,
    load_bench_snapshots,
    read_history,
    render_trend,
    snapshot_from_run,
    snapshot_from_service,
    trend_rows,
)
from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline
from hfast.spec import ExecOptions

APPS = ["cactus", "gtc"]
SCALES = {app: [8] for app in APPS}


def make_snapshot(i=0, ts=100.0, app="cactus", total_bytes=1000):
    """A minimal, well-formed run snapshot with a controllable key."""
    data = {
        "kind": "run",
        "results": [{"app": app, "nranks": 8, "total_bytes": total_bytes + i}],
        "metrics": {},
    }
    return {
        "kind": "run",
        "key": content_key(data),
        "data": data,
        "meta": {"source": "test", "timestamp": ts},
    }


# ---------------------------------------------------------------------------
# Store mechanics


def test_append_writes_wip_then_seal_renames_to_content_hash(tmp_path):
    store = HistoryStore(tmp_path)
    key = store.append(make_snapshot())
    assert len(key) == 64
    (wip,) = list(tmp_path.glob(f"{WIP_PREFIX}*.jsonl"))
    assert wip.read_text(encoding="utf-8").count("\n") == 1
    store.close()
    assert not list(tmp_path.glob(f"{WIP_PREFIX}*"))
    (seg,) = list(tmp_path.glob(f"{SEGMENT_PREFIX}*.jsonl"))
    # seg-<sha12> of its own content: sealing again is a no-op name.
    import hashlib

    assert seg.name == f"{SEGMENT_PREFIX}{hashlib.sha256(seg.read_bytes()).hexdigest()[:12]}.jsonl"


def test_crashed_wip_segment_is_still_read(tmp_path):
    store = HistoryStore(tmp_path)
    store.append(make_snapshot(i=1))
    # No close(): the process "crashed" with the wip segment on disk.
    assert list(tmp_path.glob(f"{WIP_PREFIX}*.jsonl"))
    snaps = read_history(tmp_path)
    assert len(snaps) == 1 and snaps[0]["data"]["results"][0]["total_bytes"] == 1001


def test_empty_store_seals_nothing(tmp_path):
    with HistoryStore(tmp_path):
        pass
    assert list(tmp_path.glob("*.jsonl")) == []
    assert read_history(tmp_path) == []
    assert read_history(tmp_path / "never-created") == []


def test_append_past_segment_cap_seals_and_reopens(tmp_path):
    store = HistoryStore(tmp_path, max_segment_bytes=1)
    store.append(make_snapshot(i=1))
    store.append(make_snapshot(i=2))
    segs = list(tmp_path.glob(f"{SEGMENT_PREFIX}*.jsonl"))
    assert len(segs) == 2, "each append overflows the 1-byte cap and seals"
    store.close()
    assert len(read_history(tmp_path)) == 2


def test_reruns_dedupe_by_content_key_keeping_earliest_meta(tmp_path):
    with HistoryStore(tmp_path) as store:
        store.append(make_snapshot(ts=200.0))
    with HistoryStore(tmp_path) as store:
        store.append(make_snapshot(ts=100.0))  # same data, earlier observation
        store.append(make_snapshot(i=7, ts=50.0))  # different data
    snaps = read_history(tmp_path)
    assert len(snaps) == 2
    by_ts = {s["meta"]["timestamp"] for s in snaps}
    assert by_ts == {100.0, 50.0}, "the earliest occurrence of a key wins"
    assert [s["key"] for s in snaps] == sorted(s["key"] for s in snaps)


def test_read_history_tolerates_torn_lines_unless_strict(tmp_path):
    with HistoryStore(tmp_path) as store:
        store.append(make_snapshot())
    (seg,) = list(tmp_path.glob("*.jsonl"))
    with open(seg, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "run", "data": {"tor')
    assert len(read_history(tmp_path)) == 1
    with pytest.raises(ValueError, match="malformed"):
        read_history(tmp_path, strict=True)


def test_kinds_filter(tmp_path):
    with HistoryStore(tmp_path) as store:
        store.append(make_snapshot())
        store.append(snapshot_from_service({"serve.jobs_admitted": {"type": "counter", "value": 2}}))
    assert len(read_history(tmp_path)) == 2
    assert [s["kind"] for s in read_history(tmp_path, kinds=("run",))] == ["run"]
    assert [s["kind"] for s in read_history(tmp_path, kinds=("service",))] == ["service"]


def test_compact_merges_retains_newest_and_is_idempotent(tmp_path):
    for i in range(4):
        with HistoryStore(tmp_path) as store:
            store.append(make_snapshot(i=i, ts=float(i)))
    assert len(list(tmp_path.glob("*.jsonl"))) == 4
    stats = compact(tmp_path, retain=2)
    assert stats == {"segments_before": 4, "segments_after": 1, "snapshots": 2, "dropped": 2}
    snaps = read_history(tmp_path)
    assert {s["meta"]["timestamp"] for s in snaps} == {2.0, 3.0}, "newest-by-timestamp retained"
    # Idempotent: compacting a compacted dir changes nothing.
    seg_names = sorted(p.name for p in tmp_path.glob("*.jsonl"))
    stats2 = compact(tmp_path, retain=2)
    assert stats2["dropped"] == 0
    assert sorted(p.name for p in tmp_path.glob("*.jsonl")) == seg_names
    assert read_history(tmp_path) == snaps


def test_content_key_is_order_insensitive_and_value_sensitive():
    assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
    assert content_key({"a": 1}) != content_key({"a": 2})


# ---------------------------------------------------------------------------
# Snapshot builders


def test_snapshot_from_run_splits_deterministic_data_from_volatile_meta():
    manifest = {
        "timestamp": 123.0,
        "git_sha": "abc",
        "host": "h",
        "workers": 2,
        "scheduler": {"backend": "stealing", "run_id": "r-1"},
        "cells": [
            {"app": "cactus", "nranks": 8, "ok": True, "wall_s": 0.5},
            {"app": "gtc", "nranks": 8, "ok": False, "wall_s": 0.1},
        ],
    }
    results = [{"app": "cactus", "nranks": 8, "total_bytes": 10, "wall_s": 99.0}]
    anomalies = [{"kind": "straggler", "cell": "cactus_p8"}]
    slo = [{"slo": "cell-wall", "breached": True, "burn": 3.0, "windows": []}]
    snap = snapshot_from_run(manifest, results, anomalies=anomalies, slo_statuses=slo)

    assert snap["key"] == content_key(snap["data"])
    # Wall time is volatile: it must not leak into the keyed data.
    assert "wall_s" not in snap["data"]["results"][0]
    meta = snap["meta"]
    assert meta["scheduler"] == "stealing" and meta["run_id"] == "r-1"
    assert meta["cells_total"] == 2 and meta["cells_failed"] == 1
    assert meta["cell_walls"]["cactus_p8"] == 0.5
    assert meta["stragglers"] == ["cactus_p8"] and meta["slo_violations"] == 1

    # The same work under a different scheduler/time yields the same key.
    manifest2 = dict(manifest, timestamp=999.0, scheduler={"backend": "static", "run_id": "r-2"})
    assert snapshot_from_run(manifest2, results)["key"] == snap["key"]


def test_service_snapshots_dedupe_when_counters_are_unchanged():
    a = snapshot_from_service({"serve.jobs": {"value": 3}}, timestamp=1.0)
    b = snapshot_from_service({"serve.jobs": {"value": 3}}, timestamp=2.0)
    c = snapshot_from_service({"serve.jobs": {"value": 4}}, timestamp=3.0)
    assert a["key"] == b["key"] != c["key"]


# ---------------------------------------------------------------------------
# BENCH trajectory ingestion


def test_load_bench_snapshots_reads_dir_and_skips_unusable(tmp_path):
    (tmp_path / "BENCH_good.json").write_text(json.dumps({
        "timestamp": "2026-01-02T03:04:05",
        "git_sha": "abc123",
        "workers": 4,
        "record": {"label": "ci-test", "backend": "stealing"},
        "runs": [{"app": "gtc", "nranks": 64, "total_bytes": 42}],
    }))
    (tmp_path / "BENCH_empty_runs.json").write_text(json.dumps({"runs": []}))
    (tmp_path / "BENCH_torn.json").write_text('{"runs": [')
    (tmp_path / "not_a_bench.json").write_text("{}")

    (snap,) = load_bench_snapshots(tmp_path)
    assert snap["kind"] == "bench"
    assert snap["data"]["results"][0]["app"] == "gtc"
    assert snap["meta"]["backend"] == "stealing"
    assert isinstance(snap["meta"]["timestamp"], float)
    # Single-file form loads the same snapshot.
    (same,) = load_bench_snapshots(tmp_path / "BENCH_good.json")
    assert same["key"] == snap["key"]


def test_committed_benchmarks_dir_ingests():
    snaps = load_bench_snapshots("benchmarks")
    assert snaps, "the committed benchmarks/ trajectory must be ingestible"
    rows = trend_rows(snaps)
    assert rows and all(r["observations"] >= 1 for r in rows)


# ---------------------------------------------------------------------------
# Quantiles and trend math


def test_histogram_quantile_reads_log2_buckets():
    h = {"type": "histogram", "count": 10, "buckets": {"64": 5, "256": 4, "1024": 1}}
    assert histogram_quantile(h, 0.5) == 64.0
    assert histogram_quantile(h, 0.9) == 256.0
    assert histogram_quantile(h, 0.99) == 1024.0
    assert histogram_quantile(h, 0.0) == 64.0  # clamped to the first observation
    assert histogram_quantile({"count": 0, "buckets": {}}, 0.5) is None


def test_trend_rows_ranges_and_filters():
    snaps = [make_snapshot(i=0), make_snapshot(i=5), make_snapshot(i=5, app="gtc")]
    rows = trend_rows(snaps)
    assert [(r["app"], r["nranks"]) for r in rows] == [("cactus", 8), ("gtc", 8)]
    cactus = rows[0]
    assert cactus["observations"] == 2
    assert cactus["total_bytes"] == {"min": 1000, "max": 1005, "values": 2}
    assert cactus["coverage"] is None  # column absent from every row
    assert trend_rows(snaps, app="gtc")[0]["app"] == "gtc"
    assert trend_rows(snaps, nranks=16) == []


def test_render_trend_collapses_stable_ranges():
    out = render_trend(trend_rows([make_snapshot(i=0), make_snapshot(i=5)]))
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["app", "nranks", "n", "bytes"]
    assert "1000..1005" in out
    assert render_trend([]) .startswith("app")


# ---------------------------------------------------------------------------
# End-to-end determinism contracts (the acceptance criteria)


def run_once(cache_dir, history_dir=None, **options):
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS,
        scales=SCALES,
        cache_dir=str(cache_dir),
        obs=obs,
        store=True,
        argv=["test"],
        options=ExecOptions(bench_dir=None, **options),
        history_dir=str(history_dir) if history_dir else None,
    )
    return out, obs


def test_history_is_a_pure_side_channel(tmp_path):
    """analyze artifacts are byte-identical history-on vs history-off."""
    cache = tmp_path / "cache"
    run_once(cache)  # warm the cache so both compared runs are pure hits
    outs = {}
    for name in ("off", "on"):
        out, obs = run_once(cache, history_dir=(tmp_path / "hist") if name == "on" else None)
        events = [e for e in obs.events if e["event"] != "manifest"]
        # Strip volatile walltime fields; structure and values must match.
        outs[name] = (
            json.dumps(out["results"], sort_keys=True),
            [(e["event"], e.get("name")) for e in events],
        )
    assert outs["on"] == outs["off"]
    assert read_history(tmp_path / "hist"), "the on-run must still have recorded history"


def test_backends_dedupe_to_one_snapshot_and_trend_is_byte_identical(tmp_path):
    """Serial and stealing runs of the same work: one history key."""
    cache = tmp_path / "cache"
    hist_dir = tmp_path / "hist"
    for kw in ({}, {"scheduler": "stealing", "workers": 2}):
        run_once(cache, history_dir=hist_dir, **kw)
    snaps = read_history(hist_dir, kinds=("run",))
    assert len(snaps) == 1, [s["meta"]["scheduler"] for s in read_history(hist_dir)]
    schedulers = {s["meta"]["scheduler"] for s in read_history(hist_dir)}
    assert schedulers <= {None, "static", "stealing"}

    # Trend output is a pure function of content: byte-identical however
    # many times it renders, and stable under compaction.
    first = render_trend(trend_rows(snaps))
    assert render_trend(trend_rows(read_history(hist_dir, kinds=("run",)))) == first
    compact(hist_dir)
    assert render_trend(trend_rows(read_history(hist_dir, kinds=("run",)))) == first
    for app in APPS:
        assert f"\n{app}" in "\n" + first


def test_deterministic_metric_prefixes_exclude_cache_dependent_families():
    # stage.* counts depend on cache hits vs misses; they must never be
    # part of the content-addressed snapshot data.
    assert not any(p.startswith("stage") for p in hist.DETERMINISTIC_METRIC_PREFIXES)
    filtered = hist.deterministic_metrics({
        "calls.MPI_Isend": {"type": "counter", "value": 5},
        "stage.cache_load.calls": {"type": "counter", "value": 1},
        "serve.jobs_admitted": {"type": "counter", "value": 2},
        "msg_size_bytes": {"type": "histogram", "count": 3},
    })
    assert sorted(filtered) == ["calls.MPI_Isend", "msg_size_bytes"]
