import json

import pytest

from hfast.cli import build_parser, main
from hfast.obs.trace import read_events
from hfast.timing import APP_PARAMS


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_analyze_profiled_produces_all_artifacts(tmp_path, cache_dir, capsys):
    trace_out = tmp_path / "trace.jsonl"
    metrics_out = tmp_path / "metrics.json"
    report_dir = tmp_path / "reports"
    bench_dir = tmp_path / "bench"
    rc = main(
        [
            "analyze",
            "--cache-dir", cache_dir,
            "--no-store",
            "--profile",
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
            "--report-dir", str(report_dir),
            "--bench-dir", str(bench_dir),
        ]
    )
    assert rc == 0

    events = read_events(trace_out)
    assert events[0]["event"] == "manifest"
    assert any(e["event"] == "app_summary" for e in events)
    assert any(e["event"] == "span" and e["name"] == "pipeline" for e in events)

    metrics = json.loads(metrics_out.read_text())
    assert metrics["msg_size_bytes"]["type"] == "histogram"
    # A bare analyze of an empty cache runs the four apps at the default
    # scales, 16 and 64 ranks.
    assert metrics["pipeline.apps_analyzed"]["value"] == 8

    report = json.loads((report_dir / "report.json").read_text())
    assert {r["app"] for r in report["runs"]} == {"cactus", "gtc", "lbmhd", "paratec"}
    md = (report_dir / "report.md").read_text()
    assert "## paratec @ 16 ranks" in md

    benches = list(bench_dir.glob("BENCH_*.json"))
    assert len(benches) == 1

    out = capsys.readouterr().out
    assert "coverage=" in out


def test_analyze_unprofiled_writes_nothing(tmp_path, cache_dir, capsys):
    rc = main(
        ["analyze", "--cache-dir", cache_dir, "--no-store", "--apps", "gtc", "--scales", "16"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "gtc" in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--apps", "gtc,cactus", "--scales", "8"],
        ["search", "--app", "gtc", "--scale", "8", "--circuits", "1,2", "--timesteps", "1"],
    ],
    ids=["analyze", "search"],
)
def test_workers_run_on_the_stealing_scheduler(tmp_path, capsys, command):
    """The stealing scheduler is the one parallel backend: --workers 2
    alone selects it."""
    rc = main([*command, "--cache-dir", str(tmp_path / "c"), "--workers", "2"])
    assert rc == 0
    assert "scheduler: stealing run " in capsys.readouterr().out


def test_analyze_rejects_unknown_app(cache_dir, capsys):
    rc = main(["analyze", "--cache-dir", cache_dir, "--apps", "nosuch"])
    assert rc == 2
    assert "unknown app" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,fields",
    [
        (["--reconfig-cost", "-1"], ["reconfig_cost"]),
        (["--reconfig-cost", "nan"], ["reconfig_cost"]),
        (["--circuits", "-2", "--timesteps", "0"], ["circuits_per_node", "timesteps"]),
    ],
)
def test_analyze_rejects_out_of_range_interconnect_params(
    tmp_path, cache_dir, capsys, flags, fields
):
    trace_out = tmp_path / "trace.jsonl"
    rc = main(
        ["analyze", "--cache-dir", cache_dir, "--no-store", "--apps", "cactus",
         "--scales", "16", "--trace-out", str(trace_out), *flags]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for field in fields:
        assert field in captured.err
    assert not trace_out.exists()  # refused before any output opened


def test_report_from_existing_trace(tmp_path, cache_dir):
    trace_out = tmp_path / "trace.jsonl"
    assert (
        main(
            [
                "analyze",
                "--cache-dir", cache_dir,
                "--no-store",
                "--apps", "cactus",
                "--scales", "8",
                "--trace-out", str(trace_out),
                "--report-dir", str(tmp_path / "r1"),
            ]
        )
        == 0
    )
    rc = main(["report", "--trace", str(trace_out), "--report-dir", str(tmp_path / "r2")])
    assert rc == 0
    first = json.loads((tmp_path / "r1" / "report.json").read_text())
    second = json.loads((tmp_path / "r2" / "report.json").read_text())
    assert first["runs"] == second["runs"]


def test_apps_listing(cache_dir, capsys):
    assert main(["analyze", "--cache-dir", cache_dir, "--apps", "cactus", "--scales", "8,27"]) == 0
    capsys.readouterr()
    rc = main(["apps", "--cache-dir", cache_dir])
    assert rc == 0
    listing = json.loads(capsys.readouterr().out)
    assert listing["cactus"]["cached_scales"] == [8, 27]
    assert listing["gtc"]["cached_scales"] == [16, 64]  # the default scales
    assert listing["cactus"]["loggp"] == APP_PARAMS["cactus"].to_dict()


@pytest.mark.parametrize("argv", [
    ["calibrate"],
    ["apps", "--params", "params.json"],
    ["analyze", "--mitigate"],
    ["analyze", "--slo", "default"],
    ["analyze", "--history-dir", "D"],
    ["serve", "--slo", "default"],
    ["serve", "--history-dir", "D"],
    ["obs", "history", "D"],
    ["obs", "trend", "D"],
    ["obs", "slo", "D"],
])
def test_parser_rejects_removed_commands(argv, capsys):
    """Removed commands and flags are usage errors, never silently
    ignored: ``APP_PARAMS`` is the one params table (no command fits or
    reads another), and runs keep no history, SLO or speculative
    re-dispatch. Parsing alone must refuse them: a command that parsed
    would run (``serve`` until stopped)."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
