"""``hfast trace`` CLI: every subcommand against real traces from both
backends, plus journal-dir input and malformed/empty edge cases.

The acceptance bar pinned here: ``hfast trace critical-path --weight
cost`` on a chaos run returns the *same* critical path for serial and
stealing.
"""

import json

import pytest

from hfast import cli
from hfast.sched import faults
from hfast.sched.faults import FAULT_ENV_VAR
from test_trace_analytics import make_events, span

APPS = ["cactus", "gtc", "lbmhd", "paratec"]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("trace_cli")
    path = base / "run.jsonl"
    rc = cli.main([
        "analyze", "--apps", "gtc,cactus", "--scales", "8",
        "--cache-dir", str(base / "cache"), "--trace-out", str(path),
    ])
    assert rc == 0 and path.is_file()
    return path


def test_summary_text(trace_file, capsys):
    assert cli.main(["trace", "summary", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "2 cells" in out
    assert "critical path:" in out
    assert "top stages by self time:" in out
    assert "scheduler attribution:" in out


def test_summary_json(trace_file, capsys):
    assert cli.main(["trace", "summary", str(trace_file), "--json", "--top", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == 2 and doc["spans"] > 0
    assert doc["failed_cells"] == []
    assert len(doc["critical_path"]) <= 3
    assert doc["attribution"]["cells"]


def test_critical_path_text_and_json(trace_file, capsys):
    assert cli.main(["trace", "critical-path", str(trace_file)]) == 0
    assert "pipeline" in capsys.readouterr().out
    assert cli.main(["trace", "critical-path", str(trace_file), "--json"]) == 0
    path = json.loads(capsys.readouterr().out)
    assert path[0]["label"] == "pipeline"
    assert all(e["weight"] >= 0 for e in path)


def test_critical_path_per_cell(trace_file, capsys):
    args = ["trace", "critical-path", str(trace_file), "--per-cell", "--weight", "cost"]
    assert cli.main(args) == 0
    assert "gtc_p8:" in capsys.readouterr().out
    assert cli.main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"gtc_p8", "cactus_p8"}


def test_weight_choices_are_the_analytics_weights(capsys):
    """The parser spells the weights out so that building it does not
    import the analytics layer; they must stay the ones it accepts."""
    from hfast.obs.analytics import CRITICAL_PATH_WEIGHTS

    parser = cli.build_parser()
    for weight in CRITICAL_PATH_WEIGHTS:
        args = parser.parse_args(["trace", "critical-path", "t.jsonl", "--weight", weight])
        assert args.weight == weight
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", "critical-path", "t.jsonl", "--weight", "bytes"])
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert all(w in err for w in CRITICAL_PATH_WEIGHTS)


def test_flame_folded_stdout(trace_file, capsys):
    assert cli.main(["trace", "flame", str(trace_file)]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        stack, usec = line.rsplit(" ", 1)
        assert int(usec) > 0
    assert "pipeline" in out


def test_flame_speedscope_to_file(trace_file, tmp_path, capsys):
    out_path = tmp_path / "profile.speedscope.json"
    rc = cli.main(["trace", "flame", str(trace_file),
                   "--format", "speedscope", "--out", str(out_path)])
    assert rc == 0
    assert f"flame: {out_path}" in capsys.readouterr().err
    doc = json.loads(out_path.read_text())
    assert doc["profiles"][0]["type"] == "sampled"
    assert doc["profiles"][0]["samples"]


def test_gantt(trace_file, capsys):
    assert cli.main(["trace", "gantt", str(trace_file), "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "gtc_p8" in out and "cactus_p8" in out and "2 cells" in out


def test_diff_self_and_json(trace_file, capsys):
    assert cli.main(["trace", "diff", str(trace_file), str(trace_file)]) == 0
    assert "total wall:" in capsys.readouterr().out
    assert cli.main(["trace", "diff", str(trace_file), str(trace_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["wall_delta_pct"] == 0.0
    assert doc["a_critical_path"] == doc["b_critical_path"]


# ---------------------------------------------------------------------------
# Error handling


def test_missing_file_is_rc2(tmp_path, capsys):
    assert cli.main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_dir_is_rc2(tmp_path, capsys):
    assert cli.main(["trace", "summary", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_without_spans_is_rc2(tmp_path, capsys):
    path = tmp_path / "no_spans.jsonl"
    path.write_text('{"event": "manifest"}\n')
    assert cli.main(["trace", "summary", str(path)]) == 2
    assert "no span events" in capsys.readouterr().err


def test_malformed_interior_tolerated_unless_strict(tmp_path, capsys):
    path = tmp_path / "mangled.jsonl"
    lines = [json.dumps(ev) for ev in make_events()]
    lines.insert(2, "NOT JSON")
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["trace", "summary", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["trace", "summary", str(path), "--strict"]) == 2
    assert "malformed" in capsys.readouterr().err


def test_truncated_final_line_tolerated(tmp_path, capsys):
    path = tmp_path / "crashed.jsonl"
    lines = [json.dumps(ev) for ev in make_events()]
    path.write_text("\n".join(lines) + "\n" + '{"event": "span", "span_id"')
    assert cli.main(["trace", "summary", str(path)]) == 0
    captured = capsys.readouterr()
    assert "truncated final line" in captured.err
    assert "2 cells" in captured.out


def test_diff_propagates_load_errors(trace_file, tmp_path, capsys):
    assert cli.main(["trace", "diff", str(trace_file), str(tmp_path / "x.jsonl")]) == 2


# ---------------------------------------------------------------------------
# Acceptance: identical critical path across a 2-backend chaos run


@pytest.fixture(scope="module")
def chaos_traces(tmp_path_factory):
    """One slow-injected sweep per backend, each with --trace-out."""
    base = tmp_path_factory.mktemp("chaos")
    mp = pytest.MonkeyPatch()
    mp.setattr(faults, "_SLOW_SECONDS", 0.2)
    mp.setenv(FAULT_ENV_VAR, "slow:gtc_p8:1")
    traces = {}
    try:
        for name, extra in {
            "serial": [],
            "stealing": ["--scheduler", "stealing", "--workers", "4",
                         "--journal-dir", str(base / "journal")],
        }.items():
            path = base / f"{name}.jsonl"
            rc = cli.main([
                "analyze", "--apps", ",".join(APPS), "--scales", "8",
                "--cache-dir", str(base / name), "--trace-out", str(path),
                *extra,
            ])
            assert rc == 0
            traces[name] = path
    finally:
        mp.undo()
    return {"traces": traces, "journal_dir": base / "journal"}


def cost_path_of(trace, capsys, source=None):
    rc = cli.main(["trace", "critical-path", str(source or trace),
                   "--weight", "cost", "--json"])
    assert rc == 0
    path = json.loads(capsys.readouterr().out)
    # Everything except the measured walls must be backend-invariant.
    return [{k: e[k] for k in ("label", "name", "depth", "weight")} for e in path]


def test_chaos_critical_path_identical_across_backends(chaos_traces, capsys):
    paths = {name: cost_path_of(t, capsys) for name, t in chaos_traces["traces"].items()}
    assert paths["serial"] == paths["stealing"]
    assert paths["serial"][0]["label"] == "pipeline"
    assert any(e["name"] == "cell" for e in paths["serial"])


def test_chaos_journal_dir_yields_same_critical_path(chaos_traces, capsys):
    live = cost_path_of(chaos_traces["traces"]["stealing"], capsys)
    replay = cost_path_of(None, capsys, source=chaos_traces["journal_dir"])
    assert replay == live


def test_chaos_summary_flags_the_slow_cell(chaos_traces, capsys):
    assert cli.main(["trace", "summary", str(chaos_traces["traces"]["serial"]),
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == len(APPS) and doc["failed_cells"] == []
    walls = {c["cell"]: c["wall_s"] for c in doc["attribution"]["cells"]}
    # The injected delay fires inside the timed region: gtc_p8 dominates.
    assert walls["gtc_p8"] == max(walls.values()) and walls["gtc_p8"] >= 0.2
