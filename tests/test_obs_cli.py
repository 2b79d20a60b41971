"""The ``hfast obs tail`` post-mortem CLI.

It reads structured logs long after the producing processes exited;
everything here drives it through ``cli.main`` + capsys the way a user
would.
"""

import json

import pytest

from hfast import cli
from hfast.obs.logs import configure_logging, get_logger, reset_logging


@pytest.fixture
def log(tmp_path):
    """A three-record structured log: j-1, j-2 (an error), j-3."""
    path = tmp_path / "log.jsonl"
    configure_logging(path, component="serve")
    get_logger().info("job_admitted", job_id="j-1")
    get_logger().error("job_failed", job_id="j-2")
    get_logger().info("job_admitted", job_id="j-3")
    reset_logging()
    return path


def test_obs_tail_filters_by_event_and_level(log, capsys):
    assert cli.main(["obs", "tail", str(log), "--event", "job_admitted"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(ln)["job_id"] for ln in lines] == ["j-1", "j-3"]

    assert cli.main(["obs", "tail", str(log), "--level", "error"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert json.loads(line)["event"] == "job_failed"

    assert cli.main(["obs", "tail", str(log), "-n", "1"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert json.loads(line)["job_id"] == "j-3"


@pytest.mark.parametrize("n,want", [("0", []), ("2", ["j-2", "j-3"]),
                                    ("3", ["j-1", "j-2", "j-3"]), ("9", ["j-1", "j-2", "j-3"])])
def test_obs_tail_n_prints_the_last_n_records(log, capsys, n, want):
    assert cli.main(["obs", "tail", str(log), "-n", n]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(ln)["job_id"] for ln in lines] == want


@pytest.mark.parametrize("n", ["-1", "-3", "two"])
def test_obs_tail_refuses_a_negative_n(log, capsys, n):
    with pytest.raises(SystemExit) as exc:
        cli.main(["obs", "tail", str(log), "-n", n])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "-n" in captured.err


def test_analyze_log_out_writes_correlated_run_records(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    rc = cli.main([
        "analyze", "--apps", "cactus", "--scales", "8",
        "--cache-dir", str(tmp_path / "cache"), "--log-out", str(log),
    ])
    assert rc == 0
    records = [json.loads(ln) for ln in log.read_text().splitlines()]
    events = [r["event"] for r in records]
    assert events[0] == "run_start" and events[-1] == "run_done"
    assert "cell_done" in events
    by_event = {r["event"]: r for r in records}
    assert by_event["run_start"]["component"] == "pipeline"
    assert by_event["cell_done"]["cell"] == "cactus_p8"
    assert by_event["cell_done"]["ok"] is True
    assert by_event["run_done"]["cells"] == 1
    assert by_event["run_done"]["failed"] == 0

    # The tail CLI reads the same file back.
    capsys.readouterr()
    assert cli.main(["obs", "tail", str(log), "--event", "cell_done"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert json.loads(line)["cell"] == "cactus_p8"
