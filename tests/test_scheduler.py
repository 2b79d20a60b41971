"""Unit tests for the work-stealing scheduler building blocks.

Covers the cost model (analytic formulas + BENCH calibration), the run
journal (round-trip, torn lines, fingerprint checks), the fault-spec
parser, and ``run_stealing`` itself driven by a toy executor — no real
pipeline cells, so these stay fast.
"""

import json

import pytest

from hfast.pipeline import Cell
from hfast.sched.cost import (
    CostModel,
    cells_from_bench,
    estimate_cell_cost,
    estimate_cell_records,
)
from hfast.sched.faults import FAULT_ENV_VAR, FaultSpecError, maybe_inject, parse_fault_spec
from hfast.sched.journal import JournalError, RunJournal, build_fingerprint, new_run_id
from hfast.sched.scheduler import SchedulerConfig, run_stealing
from hfast.spec import RunSpec

# ---------------------------------------------------------------------------
# Cost model


def test_record_estimates_mirror_app_generators():
    # paratec's all-to-all is quadratic; the stencils are linear.
    assert estimate_cell_records("paratec", 16) == 2 * 16 * 15 + 2 * 16
    assert estimate_cell_records("cactus", 16) == 18 * 16 + 2 * 16
    assert estimate_cell_records("lbmhd", 16) == 16 * 16 + 2 * 16
    assert estimate_cell_records("gtc", 16) == 4 * 16
    assert estimate_cell_records("mystery_app", 16) == 8 * 16


def test_cost_monotone_in_scale_and_paratec_dominates():
    for app in ("cactus", "gtc", "lbmhd", "paratec"):
        costs = [estimate_cell_cost(app, n) for n in (8, 16, 64, 256)]
        assert costs == sorted(costs) and costs[0] < costs[-1]
    # At equal scale the all-to-all app must sort first in the queue.
    assert estimate_cell_cost("paratec", 64) > estimate_cell_cost("cactus", 64)
    assert estimate_cell_cost("paratec", 64) > estimate_cell_cost("gtc", 64)


def test_cost_model_prefers_measured_walls():
    model = CostModel(measured={("gtc", 16): 7.5})
    assert model.estimate("gtc", 16) == 7.5
    # Unmeasured cells scale by the measured/analytic ratio, keeping the
    # two populations comparable.
    scale = 7.5 / estimate_cell_cost("gtc", 16)
    assert model.estimate("cactus", 16) == pytest.approx(
        estimate_cell_cost("cactus", 16) * scale
    )


def test_cost_model_uncalibrated_is_analytic():
    model = CostModel()
    assert model.estimate("lbmhd", 32) == estimate_cell_cost("lbmhd", 32)


def test_from_bench_dir_is_best_effort(tmp_path):
    # No directory, empty directory, and garbage files all degrade to the
    # analytic model instead of raising.
    assert CostModel.from_bench_dir(None).measured == {}
    assert CostModel.from_bench_dir(tmp_path).measured == {}
    (tmp_path / "BENCH_bad.json").write_text("{not json")
    assert CostModel.from_bench_dir(tmp_path).measured == {}


def test_from_bench_dir_reads_newest_snapshot(tmp_path):
    old = {
        "timestamp": "2026-01-01T00:00:00",
        "profile": {"cells": [{"app": "gtc", "nranks": 8, "ok": True, "wall_s": 9.0}]},
    }
    new = {
        "timestamp": "2026-02-01T00:00:00",
        "profile": {"cells": [{"app": "gtc", "nranks": 8, "ok": True, "wall_s": 1.25}]},
    }
    (tmp_path / "BENCH_old.json").write_text(json.dumps(old))
    (tmp_path / "BENCH_new.json").write_text(json.dumps(new))
    model = CostModel.from_bench_dir(tmp_path)
    assert model.estimate("gtc", 8) == 1.25


def test_cells_from_bench_skips_failed_and_malformed():
    doc = {
        "profile": {
            "cells": [
                {"app": "gtc", "nranks": 8, "ok": True, "wall_s": 1.0},
                {"app": "gtc", "nranks": 16, "ok": False, "wall_s": 1.0},
                {"app": "gtc", "nranks": 32, "ok": True, "wall_s": 0.0},
                {"app": "gtc", "ok": True, "wall_s": 1.0},
            ]
        }
    }
    assert cells_from_bench(doc) == {("gtc", 8): 1.0}
    assert cells_from_bench(None) == {}
    assert cells_from_bench({"profile": None}) == {}


# ---------------------------------------------------------------------------
# Journal


def _result(index):
    return {"app": "gtc", "nranks": 8, "index": index, "ok": True, "summary": {"x": index}}


def test_journal_round_trip(tmp_path):
    fp = build_fingerprint(RunSpec(cells=(("gtc", 8),), timing_seed=42), "c", True)
    run_id = new_run_id()
    journal = RunJournal.create(tmp_path, run_id, fp)
    journal.record_done(0, "gtc_p8", 2, _result(0))
    loaded = RunJournal.load(tmp_path, run_id)
    assert loaded.fingerprint == fp
    assert loaded.completed[0] == {"attempts": 2, "result": _result(0)}
    assert not loaded.complete
    loaded.record_complete()
    assert RunJournal.load(tmp_path, run_id).complete


def test_journal_tolerates_torn_final_line(tmp_path):
    journal = RunJournal.create(tmp_path, "r1", {"k": 1})
    journal.record_done(0, "gtc_p8", 1, _result(0))
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "cell_done", "index": 1, "resu')  # crash mid-write
    loaded = RunJournal.load(tmp_path, "r1")
    assert list(loaded.completed) == [0]


def test_journal_load_unknown_run_lists_available(tmp_path):
    RunJournal.create(tmp_path, "exists", {})
    with pytest.raises(JournalError, match="exists"):
        RunJournal.load(tmp_path, "missing")


def test_journal_missing_header_rejected(tmp_path):
    (tmp_path / "broken.jsonl").write_text('{"kind": "cell_done", "index": 0, "result": {}}\n')
    with pytest.raises(JournalError, match="missing run header"):
        RunJournal.load(tmp_path, "broken")


def test_fingerprint_mismatch_names_the_difference(tmp_path):
    fp_a = build_fingerprint(RunSpec(cells=(("gtc", 8),), timing_seed=42), "c", True)
    fp_b = build_fingerprint(RunSpec(cells=(("gtc", 16),), timing_seed=43), "c", True)
    journal = RunJournal.create(tmp_path, "r1", fp_a)
    journal.check_fingerprint(fp_a)  # identical: fine
    with pytest.raises(JournalError, match="cells, timing_seed"):
        journal.check_fingerprint(fp_b)
    # A journal written when fingerprints still named a synthesis backend
    # does not resume.
    legacy = RunJournal.create(tmp_path, "r2", {**fp_a, "backend": "vector"})
    with pytest.raises(JournalError, match="differs on: backend"):
        legacy.check_fingerprint(fp_a)


# ---------------------------------------------------------------------------
# Fault spec


def test_parse_fault_spec():
    assert parse_fault_spec(None) == {}
    assert parse_fault_spec("") == {}
    assert parse_fault_spec("crash:gtc_p16:1") == {"gtc_p16": ("crash", 1)}
    assert parse_fault_spec("flaky:a_p8:2, hang:b_p8:1") == {
        "a_p8": ("flaky", 2),
        "b_p8": ("hang", 1),
    }


@pytest.mark.parametrize(
    "spec", ["crash:gtc_p16", "explode:gtc_p16:1", "crash:gtc_p16:x", "crash:gtc_p16:-1"]
)
def test_parse_fault_spec_rejects_malformed(spec):
    with pytest.raises(FaultSpecError):
        parse_fault_spec(spec)


def test_maybe_inject_flaky_and_attempt_window(monkeypatch):
    from hfast.sched.faults import TransientFault

    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:2")
    with pytest.raises(TransientFault):
        maybe_inject("gtc_p8", 1)
    with pytest.raises(TransientFault):
        maybe_inject("gtc_p8", 2)
    maybe_inject("gtc_p8", 3)  # past the window: no-op
    maybe_inject("other_p8", 1)  # different cell: no-op
    monkeypatch.delenv(FAULT_ENV_VAR)
    maybe_inject("gtc_p8", 1)  # unset: no-op


# ---------------------------------------------------------------------------
# run_stealing with a toy executor


def _toy_execute(task):
    return {
        "app": task["app"],
        "nranks": task["nranks"],
        "index": task["index"],
        "ok": True,
        "error": None,
        "summary": {"cell": task["index"], "attempt": task["attempt"]},
        "wall_s": 0.0,
        "events": [],
        "metrics": {},
        "cache": {},
    }


def _fail_first_attempt_gtc(task):
    res = _toy_execute(task)
    if task["app"] == "gtc" and task["attempt"] == 1:
        res.update(ok=False, error="boom", summary=None)
    return res


def _always_fail_gtc(task):
    res = _toy_execute(task)
    if task["app"] == "gtc":
        res.update(ok=False, error="boom", summary=None)
    return res


def _cells():
    apps = ["cactus", "gtc", "lbmhd", "paratec"]
    return [Cell(app=a, nranks=8, index=i) for i, a in enumerate(apps)]


def _payload(cell, attempt):
    return {"app": cell.app, "nranks": cell.nranks, "index": cell.index}


def test_run_stealing_returns_results_in_cell_order():
    cells = _cells()
    cfg = SchedulerConfig(workers=2, poll_interval=0.01)
    results, stats = run_stealing(cells, _payload, _toy_execute, cfg)
    assert [r["index"] for r in results] == [0, 1, 2, 3]
    assert all(r["ok"] and r["attempts"] == 1 for r in results)
    assert stats["tasks_dispatched"] == 4
    assert stats["steals"] == 2  # 4 dispatches minus each worker's first task
    assert stats["workers_lost"] == 0 and stats["retries"] == 0


def test_run_stealing_retries_transient_failure():
    cfg = SchedulerConfig(workers=2, max_retries=2, retry_backoff=0.01, poll_interval=0.01)
    results, stats = run_stealing(_cells(), _payload, _fail_first_attempt_gtc, cfg)
    gtc = results[1]
    assert gtc["ok"] and gtc["attempts"] == 2
    assert stats["retries"] == 1
    assert [r["index"] for r in results] == [0, 1, 2, 3]


def test_run_stealing_reports_exhausted_retries():
    cfg = SchedulerConfig(workers=2, max_retries=1, retry_backoff=0.01, poll_interval=0.01)
    results, stats = run_stealing(_cells(), _payload, _always_fail_gtc, cfg)
    gtc = results[1]
    assert not gtc["ok"] and gtc["attempts"] == 2 and "boom" in gtc["error"]
    assert stats["retries"] == 1
    assert all(r["ok"] for i, r in enumerate(results) if i != 1)


def test_run_stealing_replays_journal(tmp_path):
    cfg = SchedulerConfig(workers=2, poll_interval=0.01)
    journal = RunJournal.create(tmp_path, "r1", {"k": 1})
    results, _ = run_stealing(_cells(), _payload, _toy_execute, cfg, journal=journal)
    assert not journal.complete  # the runner marks it after its last batch

    resumed = RunJournal.load(tmp_path, "r1")
    replayed, stats = run_stealing(_cells(), _payload, _toy_execute, cfg, journal=resumed)
    assert stats["cells_from_journal"] == 4
    assert stats["workers_spawned"] == 0  # nothing left to execute
    assert all(r["from_journal"] for r in replayed)
    assert [r["summary"] for r in replayed] == [r["summary"] for r in results]


def test_beat_interval_tracks_timeout():
    assert SchedulerConfig(heartbeat_timeout=30.0).beat_interval == 1.0
    assert SchedulerConfig(heartbeat_timeout=0.2).beat_interval == pytest.approx(0.05)
    assert SchedulerConfig(heartbeat_interval=0.3).beat_interval == 0.3
