"""Online straggler/regression detection.

Unit-level: the detector's cold-start guards, median-ratio fit,
threshold semantics, and BENCH-baseline regression scoring. End-to-end:
an artificially slowed cell (the ``slow`` fault mode) must surface as an
``anomaly`` trace event, in the pipeline's return value, in the
"Anomalies" report section, and on the CLI's stderr.
"""

import json

import pytest

from hfast import cli
from hfast.obs.anomaly import AnomalyDetector
from hfast.obs.profile import Observability
from hfast.obs.report import build_report, render_markdown
from hfast.pipeline import run_pipeline
from hfast.sched import faults
from hfast.sched.cost import estimate_cell_cost
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.spec import ExecOptions

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}


# ---------------------------------------------------------------------------
# Detector units


def feed(det, ratio=1e-3, cells=(("gtc", 8), ("gtc", 16), ("gtc", 32))):
    for app, n in cells:
        assert det.observe(app, n, estimate_cell_cost(app, n) * ratio) == []
    return det


def test_cold_start_never_flags():
    det = AnomalyDetector(min_wall=0.0, min_prior=3)
    # Even an absurd wall time is unflaggable before min_prior cells ran.
    assert det.observe("gtc", 8, 1e6) == []
    assert det.expected("gtc", 16) is None
    assert det.observed_cells == 1


def test_straggler_flagged_against_median_ratio_fit():
    det = feed(AnomalyDetector(min_wall=0.0, min_prior=3, threshold=4.0))
    exp = det.expected("gtc", 64)
    assert exp == pytest.approx(estimate_cell_cost("gtc", 64) * 1e-3)

    # 10x the fitted prediction, threshold 4x: flagged.
    (a,) = det.observe("gtc", 64, exp * 10)
    assert a["kind"] == "straggler" and a["cell"] == "gtc_p64"
    assert a["ratio"] == pytest.approx(10.0, rel=0.01)
    assert a["expected_s"] == pytest.approx(exp, rel=0.01)
    # 2x the prediction: within threshold, clean.
    assert det.observe("gtc", 128, det.expected("gtc", 128) * 2) == []


def test_min_wall_guard_suppresses_millisecond_noise():
    det = feed(AnomalyDetector(min_wall=0.25, min_prior=3, threshold=4.0), ratio=1e-7)
    exp = det.expected("gtc", 64)
    wall = exp * 100
    assert wall < 0.25  # the fit predicts sub-millisecond cells; 100x is still tiny
    assert wall > 4.0 * exp  # only the min_wall guard stands between this and a flag
    assert det.observe("gtc", 64, wall) == []


def test_regression_flagged_against_bench_baseline():
    det = AnomalyDetector(
        measured={("gtc", 8): 0.01}, min_wall=0.0, min_prior=99, regress_factor=10.0
    )
    (a,) = det.observe("gtc", 8, 0.5)
    assert a["kind"] == "regression" and a["cell"] == "gtc_p8"
    assert a["expected_s"] == pytest.approx(0.01)
    assert a["ratio"] == pytest.approx(50.0)
    # Within the slack factor: clean.
    assert det.observe("gtc", 8, 0.05) == []


def test_cell_can_be_both_straggler_and_regression():
    det = feed(
        AnomalyDetector(measured={("gtc", 64): 1e-6}, min_wall=0.0, min_prior=3)
    )
    found = det.observe("gtc", 64, det.expected("gtc", 64) * 100)
    assert [a["kind"] for a in found] == ["straggler", "regression"]


def test_failed_cells_are_neither_scored_nor_fitted():
    det = feed(AnomalyDetector(min_wall=0.0, min_prior=3))
    before = det.observed_cells
    assert det.observe("gtc", 64, 1e6, ok=False) == []
    assert det.observed_cells == before  # fault walls must not skew the fit


def test_check_running_flags_overdue_inflight_cell():
    det = AnomalyDetector(min_wall=0.0, min_prior=3, threshold=4.0)
    assert det.check_running("gtc", 64, 1e6) is None  # cold start
    feed(det)
    exp = det.expected("gtc", 64)
    assert det.check_running("gtc", 64, exp * 2) is None
    flag = det.check_running("gtc", 64, exp * 10)
    assert flag["kind"] == "straggler_running" and flag["cell"] == "gtc_p64"
    assert det.observed_cells == 3  # advisory only: the fit is untouched


def test_min_prior_zero_does_not_crash_on_first_observe():
    # Regression: min_prior=0 made _median_ratio index an empty list.
    det = AnomalyDetector(min_wall=0.0, min_prior=0)
    assert det.expected("gtc", 8) is None  # a median still needs one sample
    assert det.observe("gtc", 8, 1.0) == []
    assert det.expected("gtc", 8) is not None


def test_single_sample_median_fit():
    det = AnomalyDetector(min_wall=0.0, min_prior=1)
    det.observe("gtc", 8, estimate_cell_cost("gtc", 8) * 1e-3)
    assert det.expected("gtc", 16) == pytest.approx(estimate_cell_cost("gtc", 16) * 1e-3)


def test_zero_analytic_cost_is_unscoreable(monkeypatch):
    # Regression: a zero cost estimate divided by zero in expected().
    det = feed(AnomalyDetector(min_wall=0.0, min_prior=1))
    before = det.observed_cells
    monkeypatch.setattr("hfast.obs.anomaly.estimate_cell_cost", lambda app, n: 0.0)
    assert det.expected("gtc", 8) is None
    assert det.observe("gtc", 8, 100.0) == []  # neither scored...
    assert det.observed_cells == before  # ...nor folded into the fit
    assert det.check_running("gtc", 8, 100.0) is None


def test_pathological_ratios_are_clamped(monkeypatch):
    det = AnomalyDetector(min_wall=0.0, min_prior=1)
    monkeypatch.setattr("hfast.obs.anomaly.estimate_cell_cost", lambda app, n: 1e-30)
    det.observe("gtc", 8, 1.0)  # raw ratio would be 1e30
    assert det._ratios == [1e9]
    monkeypatch.setattr("hfast.obs.anomaly.estimate_cell_cost", lambda app, n: 1e30)
    det.observe("gtc", 8, 1.0)  # raw ratio would be 1e-30
    assert det._ratios == [1e-9, 1e9]
    # The clamped fit still yields a finite, usable prediction.
    monkeypatch.setattr("hfast.obs.anomaly.estimate_cell_cost", lambda app, n: 100.0)
    exp = det.expected("gtc", 8)
    assert exp is not None and 0 < exp < float("inf")


def test_from_bench_dir_loads_newest_snapshot(tmp_path):
    for stamp, wall in (("old", 9.0), ("new", 1.25)):
        (tmp_path / f"BENCH_{stamp}.json").write_text(json.dumps({
            "timestamp": f"2026-0{1 if stamp == 'old' else 2}-01T00:00:00",
            "profile": {"cells": [
                {"app": "gtc", "nranks": 8, "ok": True, "wall_s": wall}
            ]},
        }))
    det = AnomalyDetector.from_bench_dir(tmp_path)
    assert det.measured == {("gtc", 8): 1.25}
    assert AnomalyDetector.from_bench_dir(None).measured == {}


# ---------------------------------------------------------------------------
# End-to-end: a slow-injected cell surfaces everywhere


@pytest.fixture
def slow_paratec(monkeypatch):
    """Inflate paratec_p8's first attempt by ~0.4 s inside its timed region."""
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.4)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:paratec_p8:1")


def test_slow_cell_flags_straggler_end_to_end(tmp_path, slow_paratec):
    obs = Observability(enabled=True)
    detector = AnomalyDetector(threshold=3.0, min_wall=0.05)
    out = run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "c"), obs=obs,
        argv=["test"], options=ExecOptions(bench_dir=None), anomaly=detector,
    )

    # paratec is the last cell, so three priors have warmed the fit.
    (a,) = out["anomalies"]
    assert a["kind"] == "straggler" and a["cell"] == "paratec_p8"
    assert a["wall_s"] >= 0.4 > 3.0 * a["expected_s"]
    # The slowed cell still produced a normal, correct result.
    assert len(out["results"]) == 4 and out["manifest"]["failed_cells"] == []

    trace_anoms = [e for e in obs.events if e["event"] == "anomaly"]
    assert [e["cell"] for e in trace_anoms] == ["paratec_p8"]

    report = build_report(obs.events)
    assert [a["cell"] for a in report["anomalies"]] == ["paratec_p8"]
    md = render_markdown(report)
    assert "## Anomalies" in md
    assert "| paratec_p8 | straggler |" in md


def test_clean_run_reports_no_anomalies(tmp_path):
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "c"), obs=obs,
        argv=["test"], options=ExecOptions(bench_dir=None),
    )
    assert out["anomalies"] == []
    md = render_markdown(build_report(obs.events))
    assert "## Anomalies" not in md  # the section only appears when needed


def test_cli_prints_anomalies_and_reports_them(tmp_path, capsys, slow_paratec):
    rc = cli.main([
        "analyze", "--apps", ",".join(APPS), "--scales", "8",
        "--cache-dir", str(tmp_path / "cache"),
        "--report-dir", str(tmp_path / "reports"),
        "--anomaly-threshold", "3",
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "anomaly: paratec_p8 straggler:" in err
    md = (tmp_path / "reports" / "report.md").read_text()
    assert "## Anomalies" in md and "paratec_p8" in md
