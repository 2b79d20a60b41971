"""SLO engine: spec validation, burn-rate math, and the breach path.

Unit-level: the all-errors validator, multi-window AND semantics (every
window must exceed its burn limit before an SLO is breached; an empty
window can never breach), each SLI kind, and cross-run history scoring.
End-to-end: an injected straggler must surface as a burn-rate violation
in the trace (``slo_violation``), in the ``hfast_slo_*`` Prometheus
series, and in the report's "SLO compliance" section.
"""

import json

import pytest

from hfast.obs.metrics import MetricsRegistry
from hfast.obs.profile import Observability
from hfast.obs.prom import parse_prometheus, render_slo_prometheus, slo_prometheus_projection
from hfast.obs.report import build_report, render_markdown
from hfast.obs.slo import (
    DEFAULT_SPEC,
    SloEngine,
    SloSpecError,
    cells_for_slo,
    load_slo_spec,
    render_slo_lines,
    validate_spec,
)
from hfast.pipeline import run_pipeline
from hfast.sched import faults
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.spec import ExecOptions

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}


def spec_with(sli, windows=None, objective=0.99, **top):
    return {
        "slos": [
            {
                "name": "t",
                "objective": objective,
                "sli": sli,
                "windows": windows or [{"name": "run", "last": 0, "max_burn": 1.0}],
            }
        ],
        **top,
    }


# ---------------------------------------------------------------------------
# Spec loading and validation


def test_default_spec_loads_for_none_and_default():
    assert load_slo_spec(None) == DEFAULT_SPEC
    assert load_slo_spec("default") == DEFAULT_SPEC
    assert SloEngine().names == ["cell-wall", "cell-success", "call-latency"]
    assert SloEngine().mitigation_threshold() == 2.5


def test_validator_accumulates_every_error():
    bad = {
        "mitigation_threshold": 0.5,
        "slos": [
            {"objective": 2.0, "sli": {"kind": "nope"}},
            {"name": "a", "sli": {"kind": "ratio"}},  # missing bad/total
            {"name": "a", "sli": {"kind": "cell_wall"},
             "windows": [{"last": -1, "max_burn": 0}]},  # dup name + bad window
        ],
    }
    with pytest.raises(SloSpecError) as exc:
        validate_spec(bad)
    errors = exc.value.errors
    assert len(errors) >= 6
    assert any("missing name" in e for e in errors)
    assert any("objective" in e for e in errors)
    assert any("sli.kind" in e for e in errors)
    assert any("'bad' and 'total'" in e for e in errors)
    assert any("duplicate name" in e for e in errors)
    assert any("mitigation_threshold" in e for e in errors)


def test_spec_loads_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_with({"kind": "cell_wall"})))
    assert SloEngine(load_slo_spec(path)).names == ["t"]
    with pytest.raises(SloSpecError, match="cannot read"):
        load_slo_spec(tmp_path / "missing.json")
    (tmp_path / "torn.json").write_text("{")
    with pytest.raises(SloSpecError, match="invalid JSON"):
        load_slo_spec(tmp_path / "torn.json")


def test_mitigation_threshold_absent_means_none():
    assert SloEngine(spec_with({"kind": "cell_wall"})).mitigation_threshold() is None


# ---------------------------------------------------------------------------
# Burn math


def cells(n_bad, n_total):
    return [
        {"cell": f"app_p{i}", "ok": True, "straggler": i < n_bad} for i in range(n_total)
    ]


def test_breach_requires_every_window_to_exceed_its_limit():
    engine = SloEngine(spec_with(
        {"kind": "cell_wall"},
        windows=[
            {"name": "fast", "last": 2, "max_burn": 10.0},
            {"name": "slow", "last": 0, "max_burn": 30.0},
        ],
    ))
    # One straggler among 8, none in the last 2: slow window burn is
    # (1/8)/0.01 = 12.5 < 30 and fast is 0 — no breach.
    cs = cells(1, 8)
    (status,) = engine.evaluate(cells=cs)
    assert not status["breached"]
    fast, slow = status["windows"]
    assert (fast["name"], fast["n"], fast["burn"]) == ("fast", 2, 0.0)
    assert slow["burn"] == pytest.approx(12.5)

    # Stragglers at the tail: fast burn (2/2)/0.01 = 100 >= 10 AND slow
    # (2/8)/0.01 = 25... still < 30 — the slow window vetoes the page.
    cs = cells(0, 6) + cells(2, 2)
    (status,) = engine.evaluate(cells=cs)
    assert not status["breached"]
    # Lower the slow limit and the same observations breach.
    engine2 = SloEngine(spec_with(
        {"kind": "cell_wall"},
        windows=[
            {"name": "fast", "last": 2, "max_burn": 10.0},
            {"name": "slow", "last": 0, "max_burn": 20.0},
        ],
    ))
    (status,) = engine2.evaluate(cells=cs)
    assert status["breached"]
    assert status["burn"] == pytest.approx(100.0)
    assert status["budget_remaining"] == 0.0


def test_empty_window_never_breaches():
    engine = SloEngine(spec_with({"kind": "cell_wall"}))
    (status,) = engine.evaluate(cells=[])
    assert not status["breached"] and status["burn"] == 0.0
    assert status["windows"][0]["n"] == 0


def test_ratio_sli_resolves_counts_then_counter_metrics():
    engine = SloEngine(spec_with(
        {"kind": "ratio", "bad": "cells_failed", "total": "cells_total"}, objective=0.9
    ))
    (status,) = engine.evaluate(counts={"cells_failed": 1, "cells_total": 10})
    assert status["burn"] == pytest.approx(1.0) and status["breached"]
    (status,) = engine.evaluate(metrics={
        "cells_failed": {"type": "counter", "value": 0},
        "cells_total": {"type": "counter", "value": 10},
    })
    assert status["burn"] == 0.0 and not status["breached"]


def test_latency_sli_scores_histogram_tail():
    engine = SloEngine(spec_with(
        {"kind": "latency", "metric": "call_latency_usec", "threshold": 256}, objective=0.9
    ))
    hist = {"type": "histogram", "count": 10,
            "buckets": {"64": 6, "256": 2, "4096": 2}}
    (status,) = engine.evaluate(metrics={"call_latency_usec": hist})
    # 2 of 10 above 256 -> bad_frac 0.2, budget 0.1 -> burn 2.0 >= 1.0.
    assert status["burn"] == pytest.approx(2.0) and status["breached"]
    (status,) = engine.evaluate(metrics={})  # metric absent: no data, no breach
    assert status["burn"] == 0.0 and not status["breached"]


def test_gauge_sli_is_binary_over_the_cap():
    engine = SloEngine(spec_with({"kind": "gauge", "metric": "queue_depth", "max": 8}))
    (status,) = engine.evaluate(counts={"queue_depth": 9})
    assert status["breached"] and status["windows"][0]["n"] == 1
    (status,) = engine.evaluate(counts={"queue_depth": 8})
    assert not status["breached"]
    (status,) = engine.evaluate(counts={})
    assert status["windows"][0]["n"] == 0 and not status["breached"]


def test_cells_for_slo_joins_reports_with_anomalies():
    reports = [{"app": "gtc", "nranks": 8, "ok": True},
               {"app": "cactus", "nranks": 8, "ok": False}]
    anomalies = [{"kind": "straggler", "cell": "gtc_p8"},
                 {"kind": "regression", "cell": "cactus_p8"}]
    out = cells_for_slo(reports, anomalies)
    assert out == [
        {"cell": "gtc_p8", "ok": True, "straggler": True},
        {"cell": "cactus_p8", "ok": False, "straggler": False},  # regression != straggler
    ]


# ---------------------------------------------------------------------------
# Cross-run (history) evaluation


def run_snap(key, ts, stragglers=(), cells_total=4, cells_failed=0):
    return {
        "kind": "run",
        "key": key,
        "data": {"kind": "run", "results": [], "metrics": {}},
        "meta": {
            "timestamp": ts,
            "stragglers": list(stragglers),
            "cells_total": cells_total,
            "cells_failed": cells_failed,
        },
    }


def test_evaluate_runs_windows_slide_over_runs_oldest_first():
    engine = SloEngine(spec_with(
        {"kind": "cell_wall"},
        windows=[{"name": "fast", "last": 2, "max_burn": 10.0}],
    ))
    snaps = [
        run_snap("c", 3.0, stragglers=["gtc_p8"]),  # newest
        run_snap("a", 1.0),
        run_snap("b", 2.0),
        {"kind": "service", "key": "s", "data": {}, "meta": {}},  # ignored
    ]
    (status,) = engine.evaluate_runs(snaps)
    assert status["runs"] == 3
    win = status["windows"][0]
    # Window of the last 2 runs by timestamp: b (clean) + c (1/4 bad).
    assert win["n"] == 8.0 and win["bad"] == 1.0
    assert win["burn"] == pytest.approx((1 / 8) / 0.01)
    assert status["breached"]  # 12.5 >= 10 in the only window


def test_evaluate_runs_clean_history_is_zero_burn():
    statuses = SloEngine().evaluate_runs([run_snap("a", 1.0), run_snap("b", 2.0)])
    assert all(s["burn"] == 0.0 and not s["breached"] for s in statuses)


# ---------------------------------------------------------------------------
# Emission surfaces


def test_record_folds_statuses_into_registry():
    registry = MetricsRegistry(enabled=True)
    engine = SloEngine(spec_with({"kind": "cell_wall"}, objective=0.5))
    (status,) = engine.evaluate(cells=cells(2, 2))
    assert status["breached"]
    engine.record(registry, [status])
    snap = registry.to_dict()
    assert snap["slo.t.burn_rate"]["value"] == pytest.approx(2.0)
    assert snap["slo.t.breached"]["value"] == 1
    assert snap["slo.violations_total"]["value"] == 1


def test_render_slo_lines_format():
    (clean,) = SloEngine(spec_with({"kind": "cell_wall"})).evaluate(cells=cells(0, 4))
    (line,) = render_slo_lines([clean])
    assert line == (
        "slo: t (cell_wall, objective 0.99) ok burn=0 budget=1 [run[all] burn=0/1]"
    )
    bad = dict(clean, breached=True, burn=25.0, budget_remaining=0.0)
    assert "BREACHED" in render_slo_lines([bad])[0]


def test_slo_prometheus_round_trip():
    statuses = SloEngine().evaluate(cells=cells(1, 4))
    text = render_slo_prometheus(statuses)
    assert parse_prometheus(text) == slo_prometheus_projection(statuses)
    assert render_slo_prometheus([]) == ""


# ---------------------------------------------------------------------------
# End-to-end: injected straggler -> burn-rate violation everywhere


@pytest.fixture
def slow_paratec(monkeypatch):
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.4)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:paratec_p8:1")


def run_with_slo(tmp_path, **kw):
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "cache"), obs=obs,
        argv=["test"], options=ExecOptions(bench_dir=None), slo=SloEngine(), **kw,
    )
    return out, obs


def test_injected_straggler_breaches_cell_wall_slo(tmp_path, slow_paratec):
    out, obs = run_with_slo(tmp_path)
    # paratec is the last of 4 cells; 1/4 straggling burns the 1% budget
    # at 25x: over the fast window limit (14) and the slow (6) -> breach.
    by_name = {s["slo"]: s for s in out["slo"]}
    assert by_name["cell-wall"]["breached"]
    assert by_name["cell-wall"]["burn"] == pytest.approx(25.0)
    assert not by_name["cell-success"]["breached"]

    # Trace: slo_status for every SLO plus one slo_violation.
    statuses = [e for e in obs.events if e["event"] == "slo_status"]
    assert {e["slo"] for e in statuses} == {"cell-wall", "cell-success", "call-latency"}
    (violation,) = [e for e in obs.events if e["event"] == "slo_violation"]
    assert violation["slo"] == "cell-wall" and violation["burn"] == pytest.approx(25.0)

    # Metrics registry -> Prometheus series.
    snap = obs.metrics.to_dict()
    assert snap["slo.cell-wall.breached"]["value"] == 1
    assert 'hfast_slo_breached{slo="cell-wall"} 1' in render_slo_prometheus(out["slo"])

    # Report: the SLO compliance section calls out the breach.
    md = render_markdown(build_report(obs.events))
    assert "## SLO compliance" in md
    assert "3 SLO(s) evaluated, 1 breached." in md
    assert "| cell-wall | cell_wall | 0.99 | 25 |" in md and "**BREACHED**" in md


def test_clean_run_scores_zero_burn_everywhere(tmp_path):
    out, obs = run_with_slo(tmp_path)
    assert all(s["burn"] == 0.0 and not s["breached"] for s in out["slo"])
    assert [e for e in obs.events if e["event"] == "slo_violation"] == []
    md = render_markdown(build_report(obs.events))
    assert "## SLO compliance" in md and "all within budget" in md
    assert "BREACHED" not in md
