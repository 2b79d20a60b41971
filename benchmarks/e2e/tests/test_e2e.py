"""Tests for the end-to-end benchmark harness: ``pytest benchmarks/e2e/tests``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_the_harness_implements():
    bench = _bench()
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert bench["workloads"] == [{"name": n, "why": w["why"]} for n, w in run.WORKLOADS.items()]
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in run.END_TO_END
    ]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in run.PER_LAYER]


def test_names_units_and_bounds_are_well_formed():
    bench = _bench()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


def test_percentile_reports_count_and_refuses_a_thin_tail():
    values = [float(i) for i in range(1, 101)]
    p90, n = run.percentile(values, 90)
    assert n == 100 and 90.0 <= p90 <= 91.0
    with pytest.raises(ValueError, match="needs 100 samples, have 99"):
        run.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        run.percentile(values, 99)  # 1 sample beyond p99
    with pytest.raises(ValueError, match="needs 20 samples, have 3"):
        run.percentile([3.0, 1.0, 2.0], 50)


def test_times_scale_with_the_probe_and_memory_does_not():
    rep = {"wall_s": 2.0, "peak_rss_kb": 2048, "setup_s": 0.5, "units": [{}] * 4,
           "latencies": [0.25, 0.5, 0.75, 1.0], "probe_s": 2 * run.probe.REF_S}
    raw, scaled = run.rep_e2e(rep)
    assert raw == {"wall_s": [2.0], "peak_rss_mb": [2.0], "setup_s": [0.5], "jobs_per_s": [2.0],
                   "job_p50_s": [0.25, 0.5, 0.75, 1.0]}
    # The probe ran twice as slow as its reference: the machine was slow.
    assert scaled == {"wall_s": [1.0], "peak_rss_mb": [2.0], "setup_s": [0.25],
                      "jobs_per_s": [4.0], "job_p50_s": [0.125, 0.25, 0.375, 0.5]}
    assert set(scaled) == {name for name, *_ in run.END_TO_END}


def test_e2e_value_is_the_median_sample_at_reference_speed():
    wl = run.Workload("a2a_nostore", {}, 0)
    wl.reps = [{"wall_s": w, "peak_rss_kb": 1024, "setup_s": 0.3, "units": [{}, {}],
                "latencies": [w / 4, w / 2], "probe_s": p}
               for w, p in ((1.0, run.probe.REF_S), (3.0, 3 * run.probe.REF_S), (9.0, 1.0))]
    e2e = run.e2e_metrics(wl)
    s = e2e["wall_s"]
    assert s["value"] == 1.0 and s["raw_median"] == 3.0
    assert (s["raw_min"], s["raw_max"], s["n"]) == (1.0, 9.0, 3)
    # Cell latencies pool over the run: six samples from three reps.
    p50 = e2e["job_p50_s"]
    assert p50["n"] == 6 and p50["raw_median"] == (0.75 + 1.5) / 2


def test_input_sets_partition_each_seeds_pool():
    assert run.input_seeds({"inputs": 1, "groups": 1}, 7, 0) == [7]
    params = run.WORKLOADS["a2a_nostore"]["full"]
    pool = [run.input_seeds(params, s, g) for s in (0, 1) for g in range(params["groups"])]
    flat = [x for inputs in pool for x in inputs]
    assert len(flat) == len(set(flat)) == 2 * params["groups"] * params["inputs"]


def test_probe_times_fixed_work():
    p = run.probe.Probe()
    assert 0 < p() < 30 * run.probe.REF_S


def _smoke(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_and_emits_every_declared_metric(trace):
    line = _smoke(*(["--trace"] if trace else []))
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    declared = run.PER_LAYER if trace else run.END_TO_END
    expect = {f"{w}.{m[0]}" for w in run.WORKLOADS for m in declared}
    assert set(line["metrics"]) == expect
    if trace:
        path = next(run.RESULTS.glob("e2e-*-s3-smoke.trace.jsonl"))
        proc = subprocess.run(
            [sys.executable, "-m", "hfast", "trace", "summary", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "analyze_app" in proc.stdout
