import json

from hfast.obs import manifest
from hfast.obs.manifest import build_manifest
from hfast.obs.report import build_report, render_markdown, write_report

FIXTURE_EVENTS = [
    {
        "event": "manifest",
        "git_sha": "deadbeefcafe0000",
        "timestamp": "2026-08-06T00:00:00+00:00",
        "python": "3.11.7",
        "platform": "Linux-test",
        "argv": ["analyze", "--profile"],
        "apps": ["cactus"],
        "scales": {"cactus": [8]},
        "cache": None,
    },
    {"event": "span", "name": "cache_load", "span_id": 2, "parent_id": 1, "depth": 1,
     "wall_s": 0.25, "peak_rss_kb": 1000, "attrs": {}},
    {"event": "span", "name": "matrix_reduce", "span_id": 3, "parent_id": 1, "depth": 1,
     "wall_s": 0.5, "peak_rss_kb": 2000, "attrs": {}},
    {
        "event": "app_summary",
        "app": "cactus",
        "nranks": 8,
        "overrides": {},
        "call_totals": {"MPI_Isend": 288, "MPI_Allreduce": 8},
        "total_bytes": 84934656,
        "total_messages": 288,
        "nonzero_links": 24,
        "size_buckets": {"524288": 288},
        "top_peers": [{"rank": 0, "peer": 4, "bytes": 7077888}],
        "topology": {
            "nranks": 8,
            "max_degree": 3,
            "avg_degree": 3.0,
            "degree_histogram": {"3": 8},
            "concentration": {"1": 0.33, "4": 1.0},
        },
        "interconnect": {
            "n_circuits": 24,
            "coverage": 1.0,
            "fully_provisionable": True,
            "speedup": 10.0,
        },
        "interconnect_temporal": {
            "timesteps": 4,
            "reconfig_cost": 0.001,
            "coverage": 1.0,
            "static_coverage": 1.0,
            "n_reconfigs": 15,
            "speedup": 9.5,
        },
        "timing": {
            "seed": 0,
            "model": "loggp",
            "comm_time_s": 0.148,
            "compute_time_s": 0.96,
            "wall_time_s": 0.9785,
            "pct_comm": 1.891,
            "latency_buckets": {"64": 288, "128": 8},
        },
    },
    {"event": "span", "name": "pipeline", "span_id": 1, "parent_id": None, "depth": 0,
     "wall_s": 1.0, "peak_rss_kb": 2500, "attrs": {}},
    # updated manifest re-emitted at end of run with cache stats
    {
        "event": "manifest",
        "git_sha": "deadbeefcafe0000",
        "timestamp": "2026-08-06T00:00:00+00:00",
        "python": "3.11.7",
        "platform": "Linux-test",
        "argv": ["analyze", "--profile"],
        "apps": ["cactus"],
        "scales": {"cactus": [8]},
        "cache": {"hits": 1, "misses": 0, "stores": 0, "validation_failures": 0, "entries": []},
    },
]


def test_build_report_structure():
    report = build_report(FIXTURE_EVENTS)
    assert report["report_version"] == 1
    # last manifest wins, so cache stats are present
    assert report["manifest"]["cache"]["hits"] == 1
    assert len(report["runs"]) == 1
    run = report["runs"][0]
    assert run["app"] == "cactus"
    assert run["total_bytes"] == 84934656
    prof = report["profile"]
    # total wall comes from the root pipeline span, not the sum of children
    assert prof["total_wall_s"] == 1.0
    assert prof["peak_rss_kb"] == 2500
    stages = {s["stage"]: s for s in prof["stages"]}
    assert stages["matrix_reduce"]["wall_s"] == 0.5
    assert stages["matrix_reduce"]["pct"] == 50.0
    assert stages["cache_load"]["calls"] == 1


def test_markdown_rendering():
    md = render_markdown(build_report(FIXTURE_EVENTS))
    assert "# hfast run report" in md
    assert "`deadbeefcafe0000`" in md
    assert "## cactus @ 8 ranks" in md
    assert "MPI_Isend | 288" in md
    assert "1 hits / 0 misses" in md
    assert "## Stage profile" in md
    assert "matrix_reduce" in md
    assert "fully" in md and "10.0x vs packet-only" in md
    assert "temporal assignment (4 steps)" in md
    assert "15 reconfigs" in md
    assert "1.9% communication" in md
    assert "| <= 64 µs | 288 |" in md


def test_write_report_outputs(tmp_path):
    report = build_report(FIXTURE_EVENTS)
    paths = write_report(report, tmp_path / "out", bench_dir=tmp_path / "bench")
    assert paths["markdown"].read_text().startswith("# hfast run report")
    loaded = json.loads(paths["json"].read_text())
    assert loaded["runs"][0]["nranks"] == 8
    bench = json.loads(paths["bench"].read_text())
    assert paths["bench"].name == "BENCH_deadbeefcafe.json"
    assert bench["runs"] == [
        {
            "app": "cactus",
            "nranks": 8,
            "total_bytes": 84934656,
            "total_messages": 288,
            "max_degree": 3,
            "coverage": 1.0,
            "speedup": 10.0,
            "pct_comm": 1.891,
            "temporal_coverage": 1.0,
            "temporal_speedup": 9.5,
        }
    ]


def test_empty_event_stream():
    report = build_report([])
    assert report["manifest"] is None
    assert report["runs"] == []
    assert report["profile"]["total_wall_s"] == 0
    assert report["time_breakdown"] is None
    # renders without crashing
    assert "# hfast run report" in render_markdown(report)


def test_time_breakdown_section():
    report = build_report(FIXTURE_EVENTS)
    tb = report["time_breakdown"]
    assert tb is not None
    assert [e["label"] for e in tb["critical_path"]][:2] == ["pipeline", "matrix_reduce"]
    stages = {s["stage"]: s for s in tb["top_self_stages"]}
    # pipeline self = 1.0 − (0.25 + 0.5); children carry their own wall.
    assert stages["pipeline"]["self_s"] == 0.25
    assert stages["matrix_reduce"]["self_s"] == 0.5
    md = render_markdown(report)
    assert "## Where the time went" in md
    assert md.index("## Where the time went") < md.index("## Stage profile")
    assert "| matrix_reduce | 0.5000 | 0.5000 |" in md


def test_manifest_reads_the_git_sha_once_per_directory(monkeypatch, tmp_path):
    """Every run_pipeline call builds a manifest; git runs once per
    resolved directory for the life of the process."""
    calls = []
    real_run = manifest.subprocess.run

    def counting_run(cmd, *args, **kwargs):
        if cmd[:1] == ["git"]:
            calls.append(kwargs["cwd"])
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(manifest.subprocess, "run", counting_run)
    manifest._git_sha_at.cache_clear()
    first = build_manifest(["cactus"], {"cactus": [8]})
    second = build_manifest(["gtc"], {"gtc": [16]})
    assert len(calls) == 1
    assert second["git_sha"] == first["git_sha"]

    real = tmp_path / "real"
    real.mkdir()
    (tmp_path / "link").symlink_to(real)
    build_manifest(["cactus"], {"cactus": [8]}, cwd=str(real))
    assert calls[1:] == [str(real.resolve())]
    build_manifest(["cactus"], {"cactus": [8]}, cwd=str(tmp_path / "link"))
    assert len(calls) == 2  # the same directory, reached through a symlink
