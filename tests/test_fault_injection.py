"""Determinism under failure: the work-stealing scheduler's contract.

The acceptance bar for the fault-tolerant backend: a stealing run with an
injected worker crash — and a subsequent ``--resume`` of an aborted run —
must produce results, cache artifacts, and reports byte-identical to a
serial static run (modulo wall-clock timing fields and the scheduler's
own bookkeeping). Faults are injected through ``HFAST_FAULT_INJECT``,
which forked workers inherit.
"""

import pytest

from conftest import cache_digests
from hfast import cli
from hfast.obs.profile import Observability
from hfast.obs.report import build_report
from hfast.pipeline import run_pipeline
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.sched.journal import JournalError
from hfast.spec import ExecOptions
from test_parallel_determinism import normalize

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}

# Keys that only the stealing backend produces; everything else in a run's
# output must match a serial static run byte-for-byte.
SCHED_FIELDS = {"scheduler", "attempts", "worker", "from_journal"}


def run_sweep(cache_dir, **options):
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS,
        scales=SCALES,
        cache_dir=str(cache_dir),
        obs=obs,
        argv=["test"],
        options=ExecOptions(bench_dir=None, **options),
    )
    out["report"] = build_report(obs.events)
    return out


def scrub(node):
    """normalize() plus removal of scheduler-only bookkeeping fields."""
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items() if k not in SCHED_FIELDS}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def comparable(out):
    return scrub(normalize(out["report"], strip_paths=True))


def test_stealing_matches_serial_without_faults(tmp_path):
    serial = run_sweep(tmp_path / "serial")
    stealing = run_sweep(tmp_path / "steal", scheduler="stealing", workers=4)

    assert stealing["results"] == serial["results"]
    assert cache_digests(tmp_path / "steal") == cache_digests(tmp_path / "serial")
    assert comparable(stealing) == comparable(serial)

    sched = stealing["manifest"]["scheduler"]
    assert sched["backend"] == "stealing" and sched["run_id"]
    assert sched["tasks_dispatched"] == 4 and sched["workers_lost"] == 0
    assert all(c["attempts"] == 1 for c in stealing["manifest"]["cells"])
    # Journal lives beside the cache by default.
    assert (tmp_path / "steal" / ".sched_journal" / f"{sched['run_id']}.jsonl").is_file()


def test_crashed_worker_cell_is_redispatched_byte_identical(tmp_path, monkeypatch):
    """The headline criterion: SIGKILL mid-cell, output still byte-identical."""
    serial = run_sweep(tmp_path / "serial")
    monkeypatch.setenv(FAULT_ENV_VAR, "crash:gtc_p8:1")
    crashed = run_sweep(tmp_path / "crash", scheduler="stealing", workers=4)

    assert crashed["results"] == serial["results"]
    assert cache_digests(tmp_path / "crash") == cache_digests(tmp_path / "serial")
    assert comparable(crashed) == comparable(serial)

    sched = crashed["manifest"]["scheduler"]
    assert sched["workers_lost"] >= 1 and sched["redispatches"] >= 1
    assert crashed["manifest"]["failed_cells"] == []
    by_key = {f"{c['app']}_p{c['nranks']}": c for c in crashed["manifest"]["cells"]}
    assert by_key["gtc_p8"]["attempts"] == 2 and by_key["gtc_p8"]["ok"]


def test_hung_worker_trips_heartbeat_and_recovers(tmp_path, monkeypatch):
    serial = run_sweep(tmp_path / "serial")
    monkeypatch.setenv(FAULT_ENV_VAR, "hang:gtc_p8:1")
    hung = run_sweep(
        tmp_path / "hang", scheduler="stealing", workers=2, heartbeat_timeout=1.0
    )

    assert hung["results"] == serial["results"]
    assert hung["manifest"]["failed_cells"] == []
    sched = hung["manifest"]["scheduler"]
    assert sched["workers_lost"] >= 1 and sched["redispatches"] >= 1


def test_flaky_cell_retries_to_success(tmp_path, monkeypatch):
    serial = run_sweep(tmp_path / "serial")
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:1")
    flaky = run_sweep(
        tmp_path / "flaky", scheduler="stealing", workers=2, retry_backoff=0.01
    )

    assert flaky["results"] == serial["results"]
    assert flaky["manifest"]["failed_cells"] == []
    assert flaky["manifest"]["scheduler"]["retries"] == 1
    by_key = {f"{c['app']}_p{c['nranks']}": c for c in flaky["manifest"]["cells"]}
    assert by_key["gtc_p8"]["attempts"] == 2


def test_exhausted_retries_mark_cell_failed(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:99")
    out = run_sweep(
        tmp_path / "c", scheduler="stealing", workers=2, max_retries=1, retry_backoff=0.01
    )
    assert out["manifest"]["failed_cells"] == ["gtc_p8"]
    assert len(out["results"]) == 3  # the other cells still completed
    by_key = {f"{c['app']}_p{c['nranks']}": c for c in out["manifest"]["cells"]}
    assert by_key["gtc_p8"]["attempts"] == 2 and not by_key["gtc_p8"]["ok"]


def test_resume_aborted_run_byte_identical(tmp_path, monkeypatch):
    """A run that failed a cell resumes from its journal; the resumed run's
    merged output is byte-identical to an uninterrupted serial run."""
    serial = run_sweep(tmp_path / "serial")

    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:paratec_p8:99")
    aborted = run_sweep(
        tmp_path / "r", scheduler="stealing", workers=2, max_retries=0, retry_backoff=0.01
    )
    assert aborted["manifest"]["failed_cells"] == ["paratec_p8"]
    run_id = aborted["manifest"]["scheduler"]["run_id"]

    monkeypatch.delenv(FAULT_ENV_VAR)
    resumed = run_sweep(tmp_path / "r", scheduler="stealing", workers=2, resume=run_id)

    assert resumed["results"] == serial["results"]
    assert cache_digests(tmp_path / "r") == cache_digests(tmp_path / "serial")
    assert comparable(resumed) == comparable(serial)

    sched = resumed["manifest"]["scheduler"]
    assert sched["resumed"] and sched["run_id"] == run_id
    assert sched["cells_from_journal"] == 3  # only paratec_p8 re-ran
    assert sched["tasks_dispatched"] == 1
    assert resumed["manifest"]["failed_cells"] == []
    # Cache statistics replay too: the resumed run still accounts for the
    # journaled cells' stores, identically to the serial run.
    assert resumed["manifest"]["cache"]["stores"] == serial["manifest"]["cache"]["stores"]


def test_resume_unknown_run_is_an_error(tmp_path):
    with pytest.raises(JournalError, match="no journal"):
        run_sweep(tmp_path / "c", scheduler="stealing", workers=2, resume="nope")


def test_resume_refuses_different_sweep(tmp_path):
    out = run_sweep(tmp_path / "c", scheduler="stealing", workers=2)
    run_id = out["manifest"]["scheduler"]["run_id"]
    obs = Observability(enabled=True)
    with pytest.raises(JournalError, match="cells"):
        run_pipeline(
            apps=APPS,
            scales={app: [16] for app in APPS},
            cache_dir=str(tmp_path / "c"),
            obs=obs,
            argv=["test"],
            options=ExecOptions(scheduler="stealing", workers=2, resume=run_id, bench_dir=None),
        )


# ---------------------------------------------------------------------------
# CLI-level semantics


def _cli_analyze(tmp_path, *extra):
    return cli.main(
        [
            "analyze",
            "--apps", "gtc,cactus",
            "--scales", "8",
            "--cache-dir", str(tmp_path / "cache"),
            "--scheduler", "stealing",
            "--workers", "2",
            *extra,
        ]
    )


def test_cli_stealing_prints_run_summary(tmp_path, capsys):
    assert _cli_analyze(tmp_path) == 0
    out = capsys.readouterr().out
    assert "scheduler: stealing run " in out
    assert "resume with --resume" in out


def test_cli_strict_passes_when_retry_succeeds(tmp_path, capsys, monkeypatch):
    """--strict composes with retries: a retried success is not a failure."""
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:1")
    assert _cli_analyze(tmp_path, "--strict") == 0
    err = capsys.readouterr().err
    assert "succeeded after 2 attempts" in err
    assert "error:" not in err


def test_cli_strict_fails_on_exhausted_retries(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:99")
    assert _cli_analyze(tmp_path, "--strict", "--max-retries", "1") == 1
    err = capsys.readouterr().err
    assert "cell gtc_p8 failed" in err


def test_cli_exhausted_retries_not_strict_is_partial_success(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:99")
    assert _cli_analyze(tmp_path, "--max-retries", "0") == 0


def test_cli_resume_unknown_run_errors_cleanly(tmp_path, capsys):
    rc = _cli_analyze(tmp_path, "--resume", "20990101-000000-abcdef")
    assert rc == 1
    assert "cannot resume" in capsys.readouterr().err


def test_cli_resume_completes_aborted_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:99")
    assert _cli_analyze(tmp_path, "--max-retries", "0") == 0
    out = capsys.readouterr().out
    run_id = out.split("scheduler: stealing run ")[1].split()[0]

    monkeypatch.delenv(FAULT_ENV_VAR)
    assert _cli_analyze(tmp_path, "--resume", run_id) == 0
    out = capsys.readouterr().out
    assert f"scheduler: stealing run {run_id}" in out
    assert "replayed=1" in out
