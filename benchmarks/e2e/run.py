"""End-to-end, layer-attributed benchmark of the hfast analysis pipeline.

Usage, from the root of the repository::

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed S] [--seconds N]
                                 [--reps N] [--trace [0|1]] [--smoke]

It drives three workloads through the program's public entry point,
``run_pipeline``. Every timed repetition runs in a fresh child process
with the program's observability off. Repetitions run round-robin over
the selected workloads until each has ``--reps`` of them and has spent
``--seconds``. Right before each repetition the harness times a fixed
probe of its own (``probe.py``); end-to-end times are scaled by the probe
to a reference machine speed, and reported as medians over repetitions.
With ``--trace`` every untraced repetition is followed by one whose
layers are wrapped from this benchmark's own code (see ``layers.py``);
per-layer metrics are medians over those traced repetitions.

``--seed S`` picks the inputs, each a value of the program's
``timing_seed`` and the interconnect's ``slice_seed``: ``S`` itself for
the ladders, a pool of 80 for ``a2a_nostore`` (:func:`input_seeds`); the
program receives only the generated inputs. Outputs are checked (golden
cells, stable result digests, warm reads equal to the cold run) and any
failure exits 1.

Writes ``benchmarks/e2e/results/e2e-<sha12>-s<seed>[-<workload>].json``
(plus ``.trace.jsonl`` with ``--trace``, readable by ``hfast trace
summary``) and prints, as the last line of stdout, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or the per-layer ones with ``--trace``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import layers
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"
RESULTS = HERE / "results"

DEFAULT_SECONDS = 40
REP_TIMEOUT_S = 60
#: A tail percentile needs this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# The paper's four apps on a two-step rank ladder: 4x for the stencil apps,
# 1.5x for paratec, whose all-to-all cost grows with nranks^2. One
# repetition takes one to two seconds, so a run holds twenty or more.
LADDER = {"cactus": [128, 512], "gtc": [128, 512], "lbmhd": [128, 512], "paratec": [32, 48]}
SMOKE_LADDER = {"cactus": [16, 64], "gtc": [16, 64], "lbmhd": [16, 64], "paratec": [16, 32]}

#: name -> why, full-size parameters, --smoke parameters. One repetition
#: analyses ``inputs`` seeded inputs; repetitions take turns over
#: ``groups`` such sets (see :func:`input_seeds`).
WORKLOADS: dict[str, dict[str, Any]] = {
    "ladder_cold": {
        "why": "run_pipeline cactus/gtc/lbmhd@{128,512} paratec@{32,48}, fresh cache, store on: "
               "first-time analysis; cache write path and dense n x n planes",
        "full": {"scales": LADDER, "store": True, "inputs": 1, "groups": 1},
        "smoke": {"scales": SMOKE_LADDER, "store": True, "inputs": 1, "groups": 1},
    },
    "ladder_warm": {
        "why": "ladder_cold's cells read back from the cache a cold rep wrote: the same layers "
               "on the read path instead of the write path",
        "full": {"scales": LADDER, "store": True, "inputs": 1, "groups": 1},
        "smoke": {"scales": SMOKE_LADDER, "store": True, "inputs": 1, "groups": 1},
    },
    "a2a_nostore": {
        "why": "run_pipeline paratec@64, 8 seeded inputs a rep from a pool of 80, store off: "
               "dense all-to-all led by the matcher; bypasses the cache",
        # The cost of one paratec@64 input varies by about 6% (standard
        # deviation over 24 inputs, best of 5 passes). Eight inputs a rep
        # and ten sets in turn spread a run over 80 inputs, so its median
        # hardly depends on which inputs the seed picked.
        "full": {"scales": {"paratec": [64]}, "store": False, "inputs": 8, "groups": 10},
        "smoke": {"scales": {"paratec": [32]}, "store": False, "inputs": 2, "groups": 2},
    },
}

#: (name, unit, better, bound): what a user of the system sees. ``jobs_per_s``
#: and ``job_p50_s`` count cells. Times are at the probe's reference speed.
#: On a shared 2-vCPU VM the medians of raw times spread by 15-30% between
#: runs, the scaled ones by a few percent (README.md, "Steadiness"); the
#: timing bounds still leave room for the drift the probe does not follow,
#: and sit just under ``setup_s``'s, which must be the largest.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.24),
    ("job_p50_s", "s", "lower", 0.24),
)

#: (name, unit, better), from the traced repetitions. ``<layer>.<key>``
#: reads ``key`` from that layer's span rollup; the rest are derived in
#: :func:`layer_metrics`. Layers a workload never calls read 0.
PER_LAYER = (
    ("cache.store.time_s", "s", "lower"),
    ("cache.store.bytes", "B", "lower"),
    ("cache.load.time_s", "s", "lower"),
    ("cache.load.bytes", "B", "lower"),
    ("cache.load.hit_ratio", "ratio", "higher"),
    ("records.ensure_batch.time_s", "s", "lower"),
    ("matrix.reduce_matrix.time_s", "s", "lower"),
    ("matrix.reduce_matrix.rss_hwm_delta_mb", "MB", "lower"),
    ("matrix.reduce_matrix.nonzero_links", "count", "lower"),
    ("topology.analyze_topology.time_s", "s", "lower"),
    ("topology.analyze_topology.rss_hwm_delta_mb", "MB", "lower"),
    ("interconnect.evaluate_hybrid.time_s", "s", "lower"),
    ("interconnect.evaluate_hybrid.calls_per_cell", "count", "lower"),
    ("interconnect.evaluate_temporal.self_s", "s", "lower"),
    ("interconnect.slice_edge_volumes.time_s", "s", "lower"),
    ("matcher.match.time_s", "s", "lower"),
    ("matcher.match.calls", "count", "lower"),
    ("matcher.match.edges", "count", "lower"),
    ("matcher.match.rss_hwm_delta_mb", "MB", "lower"),
    ("apps.synthesize.self_s", "s", "lower"),
    ("apps.synthesize.records", "count", "lower"),
    ("timing.apply_timing.time_s", "s", "lower"),
    ("pipeline.analyze_app.time_s", "s", "lower"),
    ("pipeline.analyze_app.self_s", "s", "lower"),
    ("pipeline.run.self_s", "s", "lower"),
    ("bench.coverage", "ratio", "higher"),
    ("bench.tracing_overhead_pct", "%", "lower"),
    ("bench.tracing_cost_pct", "%", "lower"),
)


def percentile(values: list[float], q: int) -> tuple[float, int]:
    """The q-th percentile of ``values`` and the sample count.

    It is refused unless at least ``MIN_TAIL_SAMPLES`` samples lie beyond it.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} not supported")
    if n * (100 - q) < MIN_TAIL_SAMPLES * 100:
        raise ValueError(
            f"p{q} needs {math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q))} samples, have {n}"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1], n


# -- repetitions -------------------------------------------------------------


def input_seeds(params: dict, seed: int, group: int) -> list[int]:
    """The seeded inputs of one repetition: set ``group`` of the pool of
    ``groups`` x ``inputs`` that ``seed`` selects. Pools of different seeds
    do not overlap; with one input and one set it is ``[seed]``."""
    k = params["inputs"]
    first = (seed * params["groups"] + group) * k
    return list(range(first, first + k))


def cell_rep(params: dict, inputs: list[int], cache_dir: str, trace: bool,
             run_id: str) -> dict[str, Any]:
    """One repetition in a fresh child process."""
    cfg = {"src": str(SRC), "params": params, "inputs": inputs, "cache_dir": cache_dir,
           "trace": trace, "run_id": run_id}
    cfg["spawn_t"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), json.dumps(cfg)],
        capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{run_id}: child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["latencies"] = [u["wall_s"] for u in rep["units"]]
    return rep


class Workload:
    """Repetitions of one workload."""

    def __init__(self, name: str, params: dict, seed: int):
        self.name = name
        self.params = params
        self.seed = seed
        self.reps: list[dict[str, Any]] = []
        self.traced: list[dict[str, Any]] = []
        self.spent = 0.0
        self.last_round = 0.0

    def wants_rep(self, min_reps: int, seconds: float) -> bool:
        return len(self.reps) < min_reps or self.spent + self.last_round <= seconds


class Harness:
    def __init__(self, args: argparse.Namespace, work: str):
        self.args = args
        self.work = work
        size = "smoke" if args.smoke else "full"
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        self.workloads = [Workload(n, WORKLOADS[n][size], args.seed) for n in names]
        self.checks: list[dict[str, Any]] = []
        self.warm_cache: str | None = None
        self.cold_digest: str | None = None
        self.probe = probe.Probe()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)

    def rep(self, wl: Workload, group: int, trace: bool = False) -> dict[str, Any]:
        run_id = f"{wl.name}-s{wl.seed}" + (f"-t{len(wl.traced)}" if trace else "")
        inputs = input_seeds(wl.params, wl.seed, group)
        warm = wl.name == "ladder_warm"
        if warm and self.warm_cache is None:
            d = tempfile.mkdtemp(dir=self.work)
            prep = cell_rep(wl.params, inputs, d, False, "ladder_warm-prep")
            self._keep_warm_cache(d, prep["digest"])
        cache = self.warm_cache if warm else tempfile.mkdtemp(dir=self.work)
        probe_s = self.probe()
        rep = dict(cell_rep(wl.params, inputs, cache, trace, run_id), probe_s=probe_s,
                   group=group)
        if warm:
            self.check(f"{wl.name}.matches_cold", rep["digest"] == self.cold_digest,
                       "warm results digest differs from the cold run that wrote the cache")
        elif wl.name == "ladder_cold" and not trace:
            self._keep_warm_cache(cache, rep["digest"])
        else:
            shutil.rmtree(cache)
        return rep

    def _keep_warm_cache(self, cache_dir: str, digest: str) -> None:
        """ladder_warm reads the cache the latest ladder_cold rep wrote;
        run alone, it reads one written by an untimed cold run first."""
        if self.warm_cache is not None:
            shutil.rmtree(self.warm_cache)
        self.warm_cache, self.cold_digest = cache_dir, digest

    def run(self) -> None:
        """Round-robin over the workloads; with ``--trace`` each untraced
        repetition is followed by a traced one, so both see the same drift."""
        args = self.args
        min_reps, seconds = (1, 0.0) if args.smoke else (args.reps, float(args.seconds))
        while True:
            due = [w for w in self.workloads if w.wants_rep(min_reps, seconds)]
            if not due:
                break
            for wl in due:
                t0 = time.monotonic()
                group = len(wl.reps) % wl.params["groups"]
                wl.reps.append(self.rep(wl, group))
                if args.trace:
                    wl.traced.append(self.rep(wl, group, trace=True))
                wl.last_round = time.monotonic() - t0
                wl.spent += wl.last_round

    # -- correctness -----------------------------------------------------

    def preflight(self) -> None:
        """The 8 golden cells must reproduce ``tests/golden``."""
        from hfast.pipeline import run_pipeline

        goldens = sorted(GOLDEN.glob("*.json"))
        scales: dict[str, list[int]] = {}
        for path in goldens:
            doc = json.loads(path.read_text())
            scales.setdefault(doc["app"], []).append(doc["nranks"])
        with tempfile.TemporaryDirectory(dir=self.work) as cache:
            out = run_pipeline(apps=sorted(scales), scales=scales, cache_dir=cache, store=False)
        got = {(r["app"], r["nranks"]): r for r in out["results"]}
        for path in goldens:
            want = json.loads(path.read_text())
            r = got.get((want["app"], want["nranks"]))
            seen = r and {"total_bytes": r["total_bytes"], "total_messages": r["total_messages"],
                          "call_totals": r["call_totals"],
                          "max_degree": r["topology"]["max_degree"]}
            expect = {k: want[k] for k in ("total_bytes", "total_messages", "call_totals",
                                           "max_degree")}
            self.check(f"preflight.{path.stem}", seen == expect, f"got {seen}, want {expect}")

    def verify(self) -> None:
        """Reps of one input set give one results digest; a traced rep
        gives the digest of the untraced rep it followed."""
        for wl in self.workloads:
            digests: dict[int, set[str]] = {}
            for r in wl.reps:
                digests.setdefault(r["group"], set()).add(r["digest"])
            unstable = sorted(g for g, d in digests.items() if len(d) > 1)
            self.check(f"{wl.name}.digest_stable", not unstable,
                       f"input sets {unstable} gave more than one results digest")
            if wl.traced:
                self.check(f"{wl.name}.traced_digest",
                           all(t["digest"] == u["digest"] for u, t in zip(wl.reps, wl.traced)),
                           "traced results digest differs from the untraced one")


# -- metrics -----------------------------------------------------------------


#: How a metric of each unit scales with the probe: times by k, rates by 1/k.
SPEED_POWER = {"s": 1, "1/s": -1}


def rep_e2e(rep: dict[str, Any]) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """One repetition's samples of each end-to-end metric as measured, and
    at the probe's reference speed: scaled by ``k = probe.REF_S / probe_s``.
    ``job_p50_s`` has one sample per cell, the others one per repetition."""
    raw = {
        "wall_s": [rep["wall_s"]],
        "peak_rss_mb": [rep["peak_rss_kb"] / 1024],
        "setup_s": [rep["setup_s"]],
        "jobs_per_s": [len(rep["units"]) / rep["wall_s"]],
        "job_p50_s": rep["latencies"],
    }
    k = probe.REF_S / rep["probe_s"]
    scaled = {name: [x * k ** SPEED_POWER.get(unit, 0) for x in raw[name]]
              for name, unit, *_ in END_TO_END}
    return raw, scaled


def e2e_metrics(wl: Workload) -> dict[str, dict[str, Any]]:
    """Per metric, the median of the run's samples at reference speed, and
    their median, min and max as measured.

    Single repetitions of one run spread by 20% on a shared machine and
    its speed drifts for minutes; the median of the scaled values moves
    least between runs (README.md, "Steadiness").
    """
    per_rep = [rep_e2e(r) for r in wl.reps]
    out = {}
    for name, *_ in END_TO_END:
        raw = [x for m, _ in per_rep for x in m[name]]
        out[name] = {"value": statistics.median(x for _, s in per_rep for x in s[name]),
                     "raw_median": statistics.median(raw), "raw_min": min(raw),
                     "raw_max": max(raw), "n": len(raw)}
    return out


def job_p90(wl: Workload) -> tuple[float | None, int]:
    """p90 latency over every cell of the run's untraced repetitions, with
    the sample count; None with fewer than ``MIN_TAIL_SAMPLES`` beyond it."""
    latencies = [x for r in wl.reps for x in r["latencies"]]
    try:
        return percentile(latencies, 90)
    except ValueError:
        return None, len(latencies)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _rep_layers(rep: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    roll = layers.rollup(rep["spans"])

    def get(layer: str, key: str) -> float:
        return roll.get(layer, {}).get(key, 0.0)

    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key == "rss_hwm_delta_mb":
            out[name] = get(layer, "rss_hwm_delta_kb") / 1024
        else:
            out[name] = get(layer, key)
    app_time = get("pipeline.analyze_app", "time_s")
    out["cache.load.hit_ratio"] = _ratio(get("cache.load", "hit"), get("cache.load", "calls"))
    out["interconnect.evaluate_hybrid.calls_per_cell"] = _ratio(
        get("interconnect.evaluate_hybrid", "calls"), get("pipeline.analyze_app", "calls"))
    out["pipeline.run.self_s"] = get("pipeline.run", "self_s")
    out["bench.coverage"] = _ratio(app_time - get("pipeline.analyze_app", "self_s"), app_time)
    out["bench.tracing_cost_pct"] = 100.0 * rep["tracing_cost_s"] / rep["wall_s"]
    return out


def layer_metrics(wl: Workload) -> dict[str, float]:
    """Medians over the traced repetitions."""
    per_rep = [_rep_layers(r) for r in wl.traced]
    out = {name: statistics.median(d[name] for d in per_rep) for name in per_rep[0]}
    # Each traced rep ran right after its untraced twin, so the ratio within
    # a pair cancels the machine's drift.
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(wl.reps, wl.traced)]
    out["bench.tracing_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return out


# -- output ------------------------------------------------------------------


def _environment(seed: int) -> dict[str, Any]:
    import numpy

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {"git_sha": git_sha, "src_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "seed": seed}


def _fmt(v: float | None) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def write_trace(path: Path, workloads: list[Workload]) -> None:
    """All traced spans, in the program's span-event shape, one id space."""
    base = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rep in (r for wl in workloads for r in wl.traced):
            spans = rep["spans"]
            for sp in spans:
                sp = dict(sp, span_id=sp["span_id"] + base)
                if sp["parent_id"] is not None:
                    sp["parent_id"] += base
                fh.write(json.dumps(sp, sort_keys=True) + "\n")
            base += max((sp["span_id"] for sp in spans), default=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--reps", type=int, default=3, help="minimum repetitions per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run traced repetitions and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one repetition each, for a quick end-to-end check")
    args = parser.parse_args(argv)

    if not (SRC / "hfast").is_dir() or not GOLDEN.is_dir():
        print(f"error: {SRC / 'hfast'} and {GOLDEN} are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        harness = Harness(args, work)
        harness.preflight()
        harness.run()
        harness.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = [u for wl in harness.workloads for r in wl.reps + wl.traced for u in r["units"]]
    attempted = len(units) + len(harness.checks)
    failed = sum(not u["ok"] for u in units) + sum(not c["ok"] for c in harness.checks)

    doc: dict[str, Any] = {"environment": _environment(args.seed), "args": vars(args),
                           "checks": harness.checks, "workloads": {}}
    units_of = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    line: dict[str, dict[str, Any]] = {}
    single = len(harness.workloads) == 1
    print(f"{'workload':<12} {'metric':<44} {'unit':<6} {'median':>10} {'raw med':>10} "
          f"{'raw min':>10} {'raw max':>10} {'n':>4}")
    for wl in harness.workloads:
        e2e = e2e_metrics(wl)
        p90, p90_n = job_p90(wl)
        probes = [r["probe_s"] for r in wl.reps]
        layer = layer_metrics(wl) if wl.traced else None
        for name, s in e2e.items():
            print(f"{wl.name:<12} {name:<44} {units_of[name]:<6} {_fmt(s['value']):>10} "
                  f"{_fmt(s['raw_median']):>10} {_fmt(s['raw_min']):>10} "
                  f"{_fmt(s['raw_max']):>10} {s['n']:>4}")
        print(f"{wl.name:<12} {'job_p90_s (every cell of the run)':<44} {'s':<6} {'':>10} "
              f"{_fmt(p90):>10} {'':>10} {'':>10} {p90_n:>4}")
        print(f"{wl.name:<12} {f'probe_s (reference {probe.REF_S} s)':<44} {'s':<6} {'':>10} "
              f"{_fmt(statistics.median(probes)):>10} {_fmt(min(probes)):>10} "
              f"{_fmt(max(probes)):>10} {len(probes):>4}")
        for name, v in (layer or {}).items():
            print(f"{wl.name:<12} {name:<44} {units_of[name]:<6} {_fmt(v):>10} {'':>10} "
                  f"{'':>10} {'':>10} {len(wl.traced):>4}")
        for name, v in (layer if layer is not None else
                        {k: s["value"] for k, s in e2e.items()}).items():
            line[name if single else f"{wl.name}.{name}"] = {"value": v, "unit": units_of[name]}
        doc["workloads"][wl.name] = {
            "why": WORKLOADS[wl.name]["why"], "params": wl.params, "e2e": e2e,
            "job_p90_s": {"value": p90, "n": p90_n}, "probe_ref_s": probe.REF_S,
            "layers": layer,
            "reps": [{k: v for k, v in r.items() if k != "spans"} for r in wl.reps],
        }
    correct = failed == 0
    doc.update(correct=correct, attempted=attempted, failed=failed)

    sha = (doc["environment"]["git_sha"] or "src" + doc["environment"]["src_sha256"])[:12]
    stem = f"e2e-{sha}-s{args.seed}" + ("" if args.workload == "all" else f"-{args.workload}")
    stem += "-smoke" if args.smoke else ""
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.trace:
        write_trace(RESULTS / f"{stem}.trace.jsonl", harness.workloads)
    print(f"results: {RESULTS / f'{stem}.json'}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": line}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
