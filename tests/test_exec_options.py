"""How cells run: :class:`~hfast.spec.ExecOptions` and the flags that build it.

``ExecOptions`` is the one place the scheduler rules are checked, and the
CLI registers the six scheduler flags ``analyze`` and ``search`` share
through one helper. The table below pins each flag's name, default, type
and the field it sets, next to the three ``serve`` flags that choose how
served jobs run.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from hfast import cli
from hfast.serve.daemon import AnalysisService, ServeConfig
from hfast.spec import SCHEDULERS, ExecOptions

BASE_ARGV = {"analyze": ["analyze"], "search": ["search", "--app", "gtc", "--scale", "8"]}

#: (flag, ExecOptions field, default, type, a value to set)
SHARED_FLAGS = [
    ("--workers", "workers", 1, int, "3"),
    ("--scheduler", "scheduler", "static", None, "stealing"),
    ("--resume", "resume", None, None, "r-1"),
    ("--max-retries", "max_retries", 2, int, "5"),
    ("--heartbeat-timeout", "heartbeat_timeout", 30.0, float, "2.5"),
    ("--journal-dir", "journal_dir", None, None, "jdir"),
]

#: (flag, ServeConfig field, default, type)
SERVE_FLAGS = [
    ("--workers", "workers", 1, int),
    ("--job-scheduler", "scheduler", "stealing", None),
    ("--bench-dir", "bench_dir", None, None),
]


def flags(command: str) -> dict[str, argparse.Action]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {opt: a for a in sub.choices[command]._actions for opt in a.option_strings}


# -- construction ---------------------------------------------------------------


def test_defaults():
    options = ExecOptions()
    assert dataclasses.asdict(options) == {
        "scheduler": "static", "workers": 1, "max_retries": 2, "heartbeat_timeout": 30.0,
        "retry_backoff": 0.05, "journal_dir": None, "resume": None, "run_id": None,
        "bench_dir": ".",
    }
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.workers = 2


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"scheduler": "pool"},
         "unknown scheduler 'pool' (expected one of ('static', 'stealing'))"),
        ({"resume": "r-1"}, "resume requires scheduler='stealing'"),
        ({"workers": 2}, "workers > 1 requires scheduler='stealing'"),
        ({"workers": 0}, "workers must be at least 1, got 0"),
        ({"scheduler": "stealing", "workers": -2}, "workers must be at least 1, got -2"),
        ({"max_retries": -1}, "max_retries must be at least 0, got -1"),
        ({"heartbeat_timeout": 0.0}, "heartbeat_timeout must be above 0, got 0.0"),
        ({"heartbeat_timeout": -1.0}, "heartbeat_timeout must be above 0, got -1.0"),
        ({"heartbeat_timeout": float("nan")}, "heartbeat_timeout must be above 0, got nan"),
        ({"retry_backoff": -0.5}, "retry_backoff must be at least 0, got -0.5"),
    ],
    ids=["unknown-scheduler", "resume", "workers", "workers-zero", "workers-negative",
         "max-retries-negative", "heartbeat-zero", "heartbeat-negative", "heartbeat-nan",
         "retry-backoff-negative"],
)
def test_construction_errors(kwargs, message):
    with pytest.raises(ValueError) as exc:
        ExecOptions(**kwargs)
    assert str(exc.value) == message


def test_stealing_accepts_what_static_refuses():
    options = ExecOptions(scheduler="stealing", workers=4, resume="r-1")
    assert (options.workers, options.resume) == (4, "r-1")
    options.require_stealing("resume")
    with pytest.raises(ValueError, match=r"^resume requires scheduler='stealing'$"):
        ExecOptions().require_stealing("resume")


def test_range_bounds_are_accepted():
    options = ExecOptions(max_retries=0, heartbeat_timeout=1e-3, retry_backoff=0.0)
    assert (options.workers, options.max_retries, options.retry_backoff) == (1, 0, 0.0)


# -- the CLI flags --------------------------------------------------------------


@pytest.mark.parametrize("command", ["analyze", "search"])
@pytest.mark.parametrize("flag,field,default,kind,value", SHARED_FLAGS,
                         ids=[row[0] for row in SHARED_FLAGS])
def test_shared_scheduler_flag(command, flag, field, default, kind, value):
    action = flags(command)[flag]
    assert action.dest == field
    assert action.default == default == getattr(ExecOptions(), field)
    assert action.type is kind
    if flag == "--scheduler":
        assert tuple(action.choices) == SCHEDULERS
    options = cli._exec_options(cli.build_parser().parse_args(BASE_ARGV[command] + [flag, value]))
    assert getattr(options, field) == (kind or str)(value)


@pytest.mark.parametrize("command", ["analyze", "search"])
@pytest.mark.parametrize("flag,value", [("--workers", "two"), ("--scheduler", "pool"),
                                        ("--max-retries", "1.5"), ("--heartbeat-timeout", "x")])
def test_shared_scheduler_flag_validation(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(BASE_ARGV[command] + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "search"])
@pytest.mark.parametrize(
    "extra,scheduler",
    [([], "static"), (["--scheduler", "stealing"], "stealing"), (["--workers", "2"], "stealing"),
     (["--resume", "r-1"], "stealing")],
    ids=["default", "scheduler", "workers", "resume"],
)
def test_workers_or_resume_select_stealing(command, extra, scheduler):
    args = cli.build_parser().parse_args(BASE_ARGV[command] + extra)
    assert cli._exec_options(args).scheduler == scheduler


@pytest.mark.parametrize("command", ["analyze", "search"])
@pytest.mark.parametrize(
    "extra,message",
    [(["--workers", "2", "--heartbeat-timeout", "0"], "heartbeat_timeout must be above 0, got 0.0"),
     (["--workers", "0"], "workers must be at least 1, got 0"),
     (["--max-retries", "-1"], "max_retries must be at least 0, got -1")],
    ids=["heartbeat-zero", "workers-zero", "max-retries-negative"],
)
def test_out_of_range_options_exit_2_before_any_cell_runs(
    command, extra, message, tmp_path, monkeypatch, capsys
):
    """Refused with the message before any output opens or cell runs."""
    import hfast.dse.search

    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_pipeline", refuse)
    monkeypatch.setattr(hfast.dse.search, "run_search", refuse)
    trace = tmp_path / "trace.jsonl"
    argv = BASE_ARGV[command] + ["--cache-dir", str(tmp_path / "cache"), "--no-store",
                                 "--trace-out", str(trace)] + extra
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists() and not (tmp_path / "cache").exists()


def test_bench_dir_defaults_to_the_working_directory():
    for argv, bench_dir in ((["analyze"], "."), (["analyze", "--bench-dir", "b"], "b")):
        assert cli._exec_options(cli.build_parser().parse_args(argv)).bench_dir == bench_dir


@pytest.mark.parametrize("flag,field,default,kind", SERVE_FLAGS, ids=[r[0] for r in SERVE_FLAGS])
def test_serve_flag(flag, field, default, kind):
    action = flags("serve")[flag]
    assert action.default == default == getattr(ServeConfig(), field)
    assert action.type is kind
    if flag == "--job-scheduler":
        assert tuple(action.choices) == SCHEDULERS


def test_serve_workers_select_stealing():
    assert cli._scheduler("static", 1) == "static"
    assert cli._scheduler("static", 2) == "stealing"


def test_serve_refuses_zero_workers_before_it_listens(tmp_path, capsys):
    argv = ["serve", "--port", "0", "--serve-dir", str(tmp_path / "serve"), "--workers", "0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: workers must be at least 1, got 0\n"
    assert "listening" not in captured.out and not (tmp_path / "serve").exists()


def test_serve_reports_only_the_start_up_refusal(tmp_path, monkeypatch):
    """The options are checked before the daemon starts; a ValueError
    raised while it runs or drains keeps its traceback."""
    import hfast.serve.daemon

    def fail(config):
        raise ValueError("raised while serving")

    monkeypatch.setattr(hfast.serve.daemon, "run_serve", fail)
    argv = ["serve", "--port", "0", "--serve-dir", str(tmp_path / "serve")]
    with pytest.raises(ValueError, match="^raised while serving$"):
        cli.main(argv)


def test_daemon_refuses_options_no_job_could_run_under(tmp_path):
    """Checked when the service is built, not when its first job runs."""
    with pytest.raises(ValueError, match=r"^workers > 1 requires scheduler='stealing'$"):
        AnalysisService(ServeConfig(serve_dir=str(tmp_path / "serve"), scheduler="static",
                                    workers=2))
    assert not (tmp_path / "serve").exists()
