"""Cross-worker-count and sharding determinism.

The sharded engine's contract: a sweep's output is a pure function of the
(app, scale) matrix — worker count and sharding must not change a single
byte of the repro-cache artifacts, any analysis number, or the report
(modulo wall-clock timing fields). Runs with more than one worker go
through the work-stealing scheduler, the only parallel backend; these
tests are its safety net and any future scheduler change's.
"""

from pathlib import Path

import pytest

from conftest import cache_digests
from hfast.obs.profile import Observability
from hfast.obs.report import build_report
from hfast.pipeline import Cell, build_cells, run_pipeline, shard_cells
from hfast.spec import ExecOptions

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8, 16] for app in APPS}

TIMING_FIELDS = {
    "wall_s", "pct", "total_wall_s", "peak_rss_kb", "timestamp", "argv", "workers",
    # PR 6: absolute cell execution stamps and the wall-derived report
    # section built from them are timing artifacts like wall_s itself.
    "t_start", "t_end", "pid", "time_breakdown",
    # How a run executed (backend, run id, journal, steal counts), not
    # what it computed.
    "scheduler",
}


def scheduler_for(workers: int) -> str:
    return "stealing" if workers > 1 else "static"


def run_matrix(cache_dir: Path, workers: int, shard=None) -> dict:
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS,
        scales=SCALES,
        cache_dir=str(cache_dir),
        obs=obs,
        argv=["test"],
        options=ExecOptions(scheduler=scheduler_for(workers), workers=workers),
        shard=shard,
    )
    out["report"] = build_report(obs.events)
    return out


def normalize(node, strip_paths=False):
    """Strip timing/provenance fields so runs are comparable.

    The stage table is ordered by wall time (a timing artifact), so it is
    re-sorted by stage name before comparing.
    """
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            if k in TIMING_FIELDS:
                continue
            if k == "path" and strip_paths and isinstance(v, str):
                out[k] = Path(v).name
            elif k == "stages" and isinstance(v, list):
                out[k] = sorted(
                    (normalize(s, strip_paths) for s in v), key=lambda s: s["stage"]
                )
            else:
                out[k] = normalize(v, strip_paths)
        return out
    if isinstance(node, list):
        return [normalize(v, strip_paths) for v in node]
    return node


def test_worker_counts_produce_identical_output(tmp_path):
    serial = run_matrix(tmp_path / "w1", workers=1)
    parallel = run_matrix(tmp_path / "w4", workers=4)

    # Identical analysis results, in identical order.
    assert serial["results"] == parallel["results"]
    assert len(serial["results"]) == 8

    # Byte-identical cache artifacts under identical sha256 content.
    d1, d4 = cache_digests(tmp_path / "w1"), cache_digests(tmp_path / "w4")
    assert d1 and d1 == d4

    # Identical report modulo timing fields (cache entry paths differ only
    # by the run's cache directory).
    r1 = normalize(serial["report"], strip_paths=True)
    r4 = normalize(parallel["report"], strip_paths=True)
    assert r1 == r4


def test_worker_counts_produce_identical_metrics(tmp_path):
    obs1, obs4 = Observability(enabled=True), Observability(enabled=True)
    run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "m1"),
                 obs=obs1, argv=["test"], options=ExecOptions(workers=1))
    run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "m4"),
                 obs=obs4, argv=["test"], options=ExecOptions(scheduler="stealing", workers=4))
    m1, m4 = obs1.metrics.to_dict(), obs4.metrics.to_dict()
    # Analysis metrics merge exactly; only the per-stage wall-time spans
    # differ, and those live in the tracer, not the registry.
    assert m1["msg_size_bytes"] == m4["msg_size_bytes"]
    assert m1["pipeline.bytes_total"] == m4["pipeline.bytes_total"]
    assert m1["pipeline.apps_analyzed"] == m4["pipeline.apps_analyzed"]
    # The stealing scheduler adds its own sched.* instruments.
    assert set(m1) == {k for k in m4 if not k.startswith("sched.")}


def test_shard_merge_equals_full_run(tmp_path):
    full = run_matrix(tmp_path / "full", workers=1)
    shard0 = run_matrix(tmp_path / "shards", workers=2, shard=(0, 2))
    shard1 = run_matrix(tmp_path / "shards", workers=2, shard=(1, 2))

    # Interleave shard results back into cell order and compare.
    merged = []
    s0, s1 = list(shard0["results"]), list(shard1["results"])
    for i in range(len(full["results"])):
        merged.append(s0.pop(0) if i % 2 == 0 else s1.pop(0))
    assert merged == full["results"]

    # Shards wrote disjoint cells into one cache dir; union must be
    # byte-identical to the full run's artifacts.
    assert cache_digests(tmp_path / "shards") == cache_digests(tmp_path / "full")

    # Manifests record the shard spec.
    assert shard0["manifest"]["shard"] == {"index": 0, "count": 2}
    assert len(shard0["manifest"]["cells"]) == 4


def test_shard_cells_partition_is_exact():
    cells = build_cells(APPS, SCALES)
    assert [c.index for c in cells] == list(range(8))
    for m in (1, 2, 3, 8):
        shards = [shard_cells(cells, i, m) for i in range(m)]
        seen = sorted(c.index for s in shards for c in s)
        assert seen == list(range(8)), f"shard {m} not a partition"
    assert shard_cells(cells, 0, 3)[0] == Cell(app="cactus", nranks=8, index=0)


def test_second_run_hits_cache_and_matches(tmp_path):
    """A warm parallel run (all hits) reproduces the cold run's results."""
    cold = run_matrix(tmp_path / "c", workers=4)
    warm = run_matrix(tmp_path / "c", workers=4)
    assert cold["manifest"]["cache"]["stores"] == 8
    assert warm["manifest"]["cache"]["hits"] == 8
    assert warm["manifest"]["cache"]["stores"] == 0
    assert cold["results"] == warm["results"]


def test_timing_identical_across_workers_and_shards(tmp_path):
    """Synthesized times are a pure function of (app, nranks, seed).

    Worker count and sharding must not perturb a single timing number:
    the per-cell timing summaries (float comm times included) and the
    latency-histogram buckets must match exactly. Histogram float sums
    are compared per-bucket-count, not by the merged running sum, since
    merge order legitimately differs.
    """
    serial = run_matrix(tmp_path / "w1", workers=1)
    parallel = run_matrix(tmp_path / "w4", workers=4)
    shard0 = run_matrix(tmp_path / "s", workers=2, shard=(0, 2))
    shard1 = run_matrix(tmp_path / "s", workers=2, shard=(1, 2))

    t_serial = [r["timing"] for r in serial["results"]]
    t_parallel = [r["timing"] for r in parallel["results"]]
    assert t_serial == t_parallel
    t_sharded = [r["timing"] for r in shard0["results"] + shard1["results"]]
    assert sorted(map(str, t_sharded)) == sorted(map(str, t_serial))
    for t in t_serial:
        assert t["comm_time_s"] > 0.0
        assert 0.0 < t["pct_comm"] < 100.0
        assert t["latency_buckets"]

    tm_serial = [r["interconnect_temporal"] for r in serial["results"]]
    tm_parallel = [r["interconnect_temporal"] for r in parallel["results"]]
    assert tm_serial == tm_parallel


def test_latency_histograms_merge_exactly_across_workers(tmp_path):
    obs1, obs4 = Observability(enabled=True), Observability(enabled=True)
    run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "h1"),
                 obs=obs1, argv=["test"], options=ExecOptions(workers=1))
    run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "h4"),
                 obs=obs4, argv=["test"], options=ExecOptions(scheduler="stealing", workers=4))
    m1, m4 = obs1.metrics.to_dict(), obs4.metrics.to_dict()
    names = ["call_latency_usec"] + [f"call_latency_usec.{a}" for a in APPS]
    for name in names:
        h1, h4 = m1[name], m4[name]
        assert h1["buckets"] == h4["buckets"], name
        assert h1["count"] == h4["count"] and h1["count"] > 0, name
        assert h1["min"] == h4["min"] and h1["max"] == h4["max"], name


def test_parallel_runs_need_the_stealing_scheduler(tmp_path):
    """The static backend is the serial reference; it runs no workers."""
    with pytest.raises(ValueError, match="stealing"):
        run_pipeline(apps=["gtc"], scales={"gtc": [8]}, cache_dir=str(tmp_path),
                     argv=["test"], options=ExecOptions(workers=2))
