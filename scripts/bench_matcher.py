#!/usr/bin/env python
"""Benchmark from-scratch against incremental re-matching at ultra-scale.

Runs a multi-timestep re-matching workload — the temporal evaluator's
access pattern — over the paper apps' sparse link structures at 32K
ranks (paratec's all-to-all is capped; see ``--paratec-cap``) two ways:

- ``vector`` — one from-scratch :func:`hfast.matcher.match_edges` call
  per step over one tie order built per app, which is what the temporal
  evaluator runs;
- ``incremental`` — one persistent
  :class:`hfast.matcher.IncrementalMatcher` re-matching every step.

It writes ``BENCH_matcher_vector.json`` and
``BENCH_matcher_incremental.json`` into ``--out`` (default
``benchmarks/``; never the repo root, which would poison the pipeline's
cost-model calibration and the tier-1 perf guard's newest-snapshot glob).
The docs share stage names, so the standard comparer turns the pair into
a speedup table::

    python scripts/bench_matcher.py --out benchmarks
    python scripts/bench_compare.py \
        benchmarks/BENCH_matcher_vector.json \
        benchmarks/BENCH_matcher_incremental.json \
        --max-regress 100000 --record benchmarks/matcher_speedup.json

Per app the workload is ``--steps`` weight vectors: a hashed base, a ~1%
sparse delta, an unchanged repeat, then an order-preserving rescale —
chosen so the incremental matcher's cache tiers (unchanged hit, order
reuse, full resort) all get exercised. Both ways are asserted to produce
identical circuits on every step before any timing is written.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import time
from pathlib import Path

import numpy as np

from hfast.apps import _LBMHD_OFFSETS, _factor2, _factor3, _ghost_pairs_vec
from hfast.matcher import IncrementalMatcher, match_edges, tie_order

#: The two ways of re-matching a step sequence, in the order they run.
MODES = ("vector", "incremental")
DEFAULT_NRANKS = 32768
DEFAULT_STEPS = 4
DEFAULT_PARATEC_CAP = 768
DEFAULT_BUDGET = 2


def _dedup(src: np.ndarray, dst: np.ndarray, n: int):
    keep = src != dst
    src, dst = src[keep].astype(np.int64), dst[keep].astype(np.int64)
    _, uniq = np.unique(src * np.int64(n) + dst, return_index=True)
    uniq = np.sort(uniq)
    return src[uniq], dst[uniq]


def topology(app: str, nranks: int, paratec_cap: int):
    """(src, dst, effective_nranks) link structure for one paper app."""
    if app == "cactus":
        ranks, peers = _ghost_pairs_vec(nranks, _factor3(nranks))
        return (*_dedup(ranks, peers, nranks), nranks)
    if app == "gtc":
        r = np.arange(nranks, dtype=np.int64)
        src = np.concatenate([r, r])
        dst = np.concatenate([(r + 1) % nranks, (r - 1) % nranks])
        return (*_dedup(src, dst, nranks), nranks)
    if app == "lbmhd":
        px, py = _factor2(nranks)
        r = np.arange(nranks, dtype=np.int64)
        ix, iy = r // py, r % py
        peers = ((ix[:, None] + _LBMHD_OFFSETS[:, 0]) % px) * py + (
            (iy[:, None] + _LBMHD_OFFSETS[:, 1]) % py
        )
        src = np.broadcast_to(r[:, None], peers.shape).ravel()
        return (*_dedup(src, peers.ravel(), nranks), nranks)
    if app == "paratec":
        # Dense all-to-all: O(n^2) edges, so the FFT-transpose pattern is
        # benchmarked at a capped rank count (the cap is recorded in the
        # BENCH doc and printed — never silently).
        n = min(nranks, paratec_cap)
        r = np.arange(n, dtype=np.int64)
        src = np.repeat(r, n)
        dst = np.tile(r, n)
        return (*_dedup(src, dst, n), n)
    raise ValueError(f"unknown app {app!r}")


def hashed_weights(src: np.ndarray, dst: np.ndarray, n: int, salt: int) -> np.ndarray:
    """splitmix-style deterministic positive weights from the pair key."""
    key = (src * np.int64(n) + dst).astype(np.uint64)
    key += np.uint64((salt * 0x9E3779B97F4A7C15) % (1 << 64))
    key ^= key >> np.uint64(33)
    key *= np.uint64(0xFF51AFD7ED558CCD)
    key ^= key >> np.uint64(33)
    return (key % np.uint64(1 << 20)).astype(np.float64) + 1.0


def step_weights(src: np.ndarray, dst: np.ndarray, n: int, steps: int) -> list[np.ndarray]:
    """The per-step weight vectors: base, ~1% delta, unchanged, rescale, ..."""
    base = hashed_weights(src, dst, n, salt=1)
    out = [base]
    rng = np.random.default_rng(29)
    current = base
    for step in range(1, steps):
        kind = (step - 1) % 3
        if kind == 0:  # sparse delta on ~1% of edges
            w = current.copy()
            touch = rng.choice(len(w), size=max(1, len(w) // 100), replace=False)
            w[touch] = hashed_weights(src[touch], dst[touch], n, salt=step + 1)
        elif kind == 1:  # unchanged step: the incremental cache hit
            w = current.copy()
        else:  # order-preserving rescale: sort reuse without a cache hit
            w = current * 2.0
        out.append(w)
        current = w
    return out


def run_mode(
    mode: str,
    universes: dict[str, tuple[np.ndarray, np.ndarray, int, list[np.ndarray]]],
    budget: int,
) -> tuple[list[dict], dict[str, list]]:
    """Time the step sequence per app; return (stages, per-step circuits).

    The timed region ends at the matcher's return value, the selected
    positions; turning them into circuits for the identity check is not
    timed."""
    stages: list[dict] = []
    outputs: dict[str, list] = {}
    for app, (src, dst, n, weight_steps) in universes.items():
        inc = IncrementalMatcher(src, dst, n, bound=budget) if mode == "incremental" else None
        chosen = []
        start = time.perf_counter()
        tie = tie_order(src, dst, n) if inc is None else None
        for w in weight_steps:
            if inc is not None:
                # The matcher stores edges (src, dst)-ascending; feed the
                # weights in that same order.
                chosen.append(inc.rematch(w[inc.input_order]))
            else:
                chosen.append(match_edges(src, dst, w, n, bound=budget, tie=tie))
        wall = time.perf_counter() - start
        # Both return positions, into different columns: compare circuits.
        ends = (inc.src, inc.dst) if inc is not None else (src, dst)
        results = [circuits(*ends, pos) for pos in chosen]
        stages.append(
            {
                "stage": f"match_{app}",
                "wall_s": round(wall, 6),
                "calls": len(weight_steps),
                "edges": int(len(src)),
                "nranks": n,
            }
        )
        outputs[app] = results
    return stages, outputs


def circuits(src: np.ndarray, dst: np.ndarray, positions: np.ndarray) -> list[tuple[int, int]]:
    """Matched positions as the ``(src, dst)``-sorted list of circuits."""
    return sorted(zip(src[positions].tolist(), dst[positions].tolist()))


def git_sha() -> str | None:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
                cwd=Path(__file__).parent,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark from-scratch vs incremental re-matching over "
                    "ultra-scale app topologies"
    )
    parser.add_argument("--nranks", type=int, default=DEFAULT_NRANKS)
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                        help="timesteps in the re-matching workload")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="circuits per node (degree bound)")
    parser.add_argument("--paratec-cap", type=int, default=DEFAULT_PARATEC_CAP,
                        help="rank cap for paratec's O(n^2) all-to-all")
    parser.add_argument("--apps", default="cactus,gtc,lbmhd,paratec")
    parser.add_argument("--out", type=Path, default=Path("benchmarks"),
                        help="directory for BENCH_matcher_{vector,incremental}.json")
    args = parser.parse_args(argv)

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]

    universes = {}
    for app in apps:
        src, dst, n = topology(app, args.nranks, args.paratec_cap)
        if app == "paratec" and n < args.nranks:
            print(f"bench_matcher: paratec capped at {n} ranks "
                  f"({len(src)} edges; all-to-all is O(n^2))")
        universes[app] = (src, dst, n, step_weights(src, dst, n, args.steps))
        print(f"bench_matcher: {app}: nranks={n} edges={len(src)} steps={args.steps}")

    runs = {mode: run_mode(mode, universes, args.budget) for mode in MODES}
    reference = runs[MODES[0]][1]
    for mode in MODES[1:]:
        for app, results in runs[mode][1].items():
            assert results == reference[app], f"{mode} diverged from {MODES[0]} on {app}"

    args.out.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    for mode, (stages, _) in runs.items():
        total = sum(st["wall_s"] for st in stages)
        doc = {
            "git_sha": sha,
            "timestamp": stamp,
            "workers": 1,
            "matcher": mode,
            "workload": {
                "nranks": args.nranks,
                "steps": args.steps,
                "budget": args.budget,
                "paratec_cap": args.paratec_cap,
                "apps": apps,
            },
            "profile": {
                "total_wall_s": round(total, 6),
                "stages": stages,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
        }
        path = args.out / f"BENCH_matcher_{mode}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"bench_matcher: {mode}: total {total:.2f}s -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
