import json
import os
import subprocess
from pathlib import Path

import pytest

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


REPO = Path(__file__).resolve().parents[1]
SHA_A = "0123456789abcdef0123456789abcdef01234567"
SHA_B = "89abcdef" * 5
SHA_256 = "ab" * 32


def forbid_processes(monkeypatch):
    """Make every way of starting a child process raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the manifest started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    for name in ("fork", "posix_spawn", "posix_spawnp", "system", "popen"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, refuse)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def sha_at(path):
    manifest._git_sha_at.cache_clear()
    return manifest.git_sha(str(path))


def test_manifest_reads_the_git_sha_once_per_directory(monkeypatch, tmp_path):
    """Every run_pipeline call builds a manifest. It reads HEAD from the
    repository's files without starting a process, gets the SHA ``git
    rev-parse`` reports, and reads HEAD once per resolved directory for
    the life of the process."""
    try:
        want = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("the tests do not run from a git checkout")
    forbid_processes(monkeypatch)
    reads = []
    real_head_sha = manifest._head_sha

    def counting_head_sha(gitdir, commondir):
        reads.append(gitdir)
        return real_head_sha(gitdir, commondir)

    monkeypatch.setattr(manifest, "_head_sha", counting_head_sha)
    manifest._git_sha_at.cache_clear()
    first = build_manifest(["cactus"], {"cactus": [8]}, cwd=str(REPO))
    second = build_manifest(["gtc"], {"gtc": [16]}, cwd=str(REPO))
    assert first["git_sha"] == second["git_sha"] == want
    assert len(reads) == 1
    assert build_manifest(["gtc"], {"gtc": [16]}, cwd=str(REPO / "tests"))["git_sha"] == want
    assert len(reads) == 2  # another directory of the same work tree

    real = tmp_path / "real"
    write(real / ".git" / "HEAD", SHA_A)
    (tmp_path / "link").symlink_to(real)
    assert build_manifest(["cactus"], {"cactus": [8]}, cwd=str(real))["git_sha"] == SHA_A
    assert reads[2:] == [str(real.resolve() / ".git")]
    build_manifest(["cactus"], {"cactus": [8]}, cwd=str(tmp_path / "link"))
    assert len(reads) == 3  # the same directory, reached through a symlink


def test_git_sha_reads_each_head_layout(monkeypatch, tmp_path):
    forbid_processes(monkeypatch)
    # A detached HEAD, found from a subdirectory of the work tree.
    write(tmp_path / "detached" / ".git" / "HEAD", SHA_A + "\n")
    (tmp_path / "detached" / "src" / "pkg").mkdir(parents=True)
    assert sha_at(tmp_path / "detached" / "src" / "pkg") == SHA_A
    # A branch as a loose ref, which wins over a stale packed-refs line.
    loose = tmp_path / "loose" / ".git"
    write(loose / "HEAD", "ref: refs/heads/main\n")
    write(loose / "refs" / "heads" / "main", SHA_B + "\n")
    write(loose / "packed-refs", f"{SHA_A} refs/heads/main\n")
    assert sha_at(tmp_path / "loose") == SHA_B
    # A branch only in packed-refs, among a header, other refs and a
    # peeled tag line.
    packed = tmp_path / "packed" / ".git"
    write(packed / "HEAD", "ref: refs/heads/dev\n")
    write(
        packed / "packed-refs",
        "# pack-refs with: peeled fully-peeled sorted\n"
        f"{SHA_A} refs/heads/main\n{SHA_B} refs/heads/dev\n{SHA_A} refs/tags/v1\n^{SHA_B}\n",
    )
    assert sha_at(tmp_path / "packed") == SHA_B
    # A linked worktree: its .git file names a gitdir whose commondir holds
    # the refs.
    main = tmp_path / "main" / ".git"
    write(main / "HEAD", "ref: refs/heads/main\n")
    write(main / "packed-refs", f"{SHA_A} refs/heads/main\n{SHA_B} refs/heads/feature\n")
    write(main / "worktrees" / "wt" / "HEAD", "ref: refs/heads/feature\n")
    write(main / "worktrees" / "wt" / "commondir", "../..\n")
    write(tmp_path / "wt" / ".git", "gitdir: ../main/.git/worktrees/wt\n")
    assert sha_at(tmp_path / "wt") == SHA_B
    assert sha_at(tmp_path / "main") == SHA_A
    # A submodule: an absolute gitdir without commondir, here with a
    # SHA-256 object name.
    write(tmp_path / "modules" / "sub" / "HEAD", SHA_256)
    write(tmp_path / "sub" / ".git", f"gitdir: {tmp_path / 'modules' / 'sub'}\n")
    assert sha_at(tmp_path / "sub") == SHA_256


def test_git_sha_is_unknown_for_any_other_layout(monkeypatch, tmp_path):
    forbid_processes(monkeypatch)
    cases = {
        "garbage": {".git/HEAD": "not a sha\n"},
        "short": {".git/HEAD": SHA_A[:12]},
        "upper": {".git/HEAD": SHA_A.upper()},
        "unborn": {".git/HEAD": "ref: refs/heads/main\n"},
        "chained": {
            ".git/HEAD": "ref: refs/heads/a\n",
            ".git/refs/heads/a": "ref: refs/heads/b\n",
            ".git/refs/heads/b": SHA_A,
        },
        "no-head": {".git/config": ""},
        "bad-file": {".git": "worktree elsewhere\n"},
        "dangling": {".git": "gitdir: ../nowhere\n"},
    }
    for name, files in cases.items():
        for rel, text in files.items():
            write(tmp_path / name / rel, text)
        assert sha_at(tmp_path / name) == "unknown", name
    if manifest._git_dirs(str(tmp_path)) is None:
        assert sha_at(tmp_path) == "unknown"


def test_manifest_platform_comes_from_uname():
    u = os.uname()
    doc = build_manifest(["gtc"], {"gtc": [8]})
    assert doc["platform"] == f"{u.sysname}-{u.release}-{u.machine}"
