#!/usr/bin/env python
"""Compare two BENCH_<sha>.json perf snapshots and fail on regression.

Usage::

    python scripts/bench_compare.py [BASELINE CANDIDATE] [--rerun CANDIDATE ...] \
        [--dir .] [--max-regress 25] [--min-wall 0.05]

With two explicit paths, BASELINE is the reference run and CANDIDATE the
run under test. Each ``--rerun`` is another run of the candidate's
command: the candidate is then compared at each stage's median over its
runs (:func:`median_bench`), and a baseline recorded the same way makes
the guard compare median with median. With no paths, the two newest
``BENCH_*.json`` under ``--dir`` (by embedded manifest timestamp,
falling back to file mtime) are compared — oldest of the pair as
baseline. Fewer than two snapshots is not an error: the guard prints a
"no baseline" note and passes, so the first run of a fresh checkout
doesn't fail CI. That applies to the
explicit form too — empty-string path arguments (what an empty ``$(ls
...)`` substitution produces) are dropped, and a single surviving path
is treated as a candidate with no baseline yet. Unusable snapshots —
missing files, empty or truncated JSON, documents without a
``profile`` section — are skipped with exit 0 the same way: the perf
trajectory is advisory and a damaged artifact dir must not fail CI.

A stage regresses when its wall time grows by more than ``--max-regress``
percent over baseline. Stages whose baseline wall time is below
``--min-wall`` seconds are reported but never fail the check — sub-tick
stages are dominated by scheduler noise, not code.

Exit status: 0 when no stage regresses, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path


def load_bench(path: Path) -> dict | None:
    """Load one snapshot; ``None`` (with a printed note) when unusable.

    A missing file, an empty or truncated file, or a JSON document that
    is not a BENCH snapshot must all degrade to "nothing to guard" — the
    perf trajectory is advisory, and a damaged artifact directory must
    never fail CI on its own.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench_compare: cannot read {path}: {exc}")
        return None
    if not isinstance(doc, dict) or "profile" not in doc:
        print(f"bench_compare: {path}: not a BENCH document (no 'profile' key)")
        return None
    return doc


def is_bench(path: Path) -> bool:
    """Silent usability probe for directory scans."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    return isinstance(doc, dict) and "profile" in doc


def bench_sort_key(path: Path) -> tuple:
    """Order snapshots by embedded timestamp, falling back to mtime."""
    try:
        stamp = json.loads(path.read_text(encoding="utf-8")).get("timestamp")
    except (OSError, ValueError):
        stamp = None
    try:
        mtime = path.stat().st_mtime
    except OSError:
        mtime = 0.0
    # ISO-8601 timestamps sort lexicographically; None sorts first so
    # undated files lose to dated ones, then mtime breaks ties.
    return (stamp is not None, stamp or "", mtime)


def pick_newest_two(bench_dir: Path) -> list[Path] | None:
    found = sorted(
        (p for p in bench_dir.glob("BENCH_*.json") if is_bench(p)),
        key=bench_sort_key,
    )
    if len(found) < 2:
        return None
    return found[-2:]


def stage_walls(doc: dict) -> dict[str, float]:
    return {
        st["stage"]: float(st.get("wall_s", 0.0))
        for st in (doc.get("profile") or {}).get("stages", [])
    }


def median_bench(docs: list[dict]) -> dict:
    """One document for several runs of one command: the first run's, with
    each stage's ``wall_s`` and the ``total_wall_s`` replaced by their
    median over the runs. Three runs of one commit on a shared 2-vCPU VM
    spread ``pipeline`` over a fifth of its time, about the guard's bound,
    so single runs cannot be told from a regression."""
    if len(docs) == 1:
        return docs[0]
    merged = copy.deepcopy(docs[0])
    walls = [stage_walls(doc) for doc in docs]
    profile = merged.get("profile") or {}
    for st in profile.get("stages", []):
        st["wall_s"] = round(statistics.median(w[st["stage"]] for w in walls if st["stage"] in w), 6)
    totals = [(doc.get("profile") or {}).get("total_wall_s") for doc in docs]
    if None not in totals:
        profile["total_wall_s"] = round(statistics.median(totals), 6)
    merged["median_of"] = len(docs)
    return merged


def load_runs(first: Path, reruns: list[Path]) -> dict | None:
    """The candidate's document, merged with its reruns' by
    :func:`median_bench`; a rerun that cannot be read is left out."""
    doc = load_bench(first)
    if doc is None:
        return None
    runs = [doc] + [d for d in map(load_bench, reruns) if d is not None]
    return median_bench(runs)


def compare(
    base: dict, cand: dict, max_regress: float, min_wall: float
) -> tuple[list[str], list[dict]]:
    """Return (failure messages, delta rows); print the comparison table."""
    base_walls, cand_walls = stage_walls(base), stage_walls(cand)
    failures: list[str] = []
    rows: list[dict] = []
    header = f"{'stage':<22} {'base (s)':>10} {'cand (s)':>10} {'delta':>9}  verdict"
    print(header)
    print("-" * len(header))
    for stage in sorted(set(base_walls) | set(cand_walls)):
        b, c = base_walls.get(stage), cand_walls.get(stage)
        if b is None or c is None:
            which = "candidate" if b is None else "baseline"
            print(f"{stage:<22} {b or 0:>10.4f} {c or 0:>10.4f} {'--':>9}  only-in-{which}")
            rows.append({"stage": stage, "base_s": b, "cand_s": c,
                         "delta_pct": None, "verdict": f"only-in-{which}"})
            continue
        delta_pct = 100.0 * (c - b) / b if b > 0 else 0.0
        if b < min_wall:
            verdict = "noise-floor"
        elif delta_pct > max_regress:
            verdict = "REGRESSED"
            failures.append(
                f"stage '{stage}' regressed {delta_pct:.1f}% "
                f"({b:.4f}s -> {c:.4f}s, limit {max_regress:.0f}%)"
            )
        else:
            verdict = "ok"
        print(f"{stage:<22} {b:>10.4f} {c:>10.4f} {delta_pct:>+8.1f}%  {verdict}")
        rows.append({"stage": stage, "base_s": round(b, 6), "cand_s": round(c, 6),
                     "delta_pct": round(delta_pct, 2), "verdict": verdict})
    return failures, rows


def snapshot_candidate(cand_path: Path, doc: dict, snapshot_dir: Path, label: str | None) -> Path:
    """Archive the candidate snapshot into the perf-trajectory directory.

    The copy keeps the original ``BENCH_<sha>.json`` name and gains a
    ``record`` block saying where it came from and which CI job or
    backend produced it. With ``--rerun`` the copy is the median document,
    which is how a committed median-of-three baseline is recorded. A name
    collision with different content gets a content-hash suffix instead
    of overwriting an earlier copy.
    """
    import hashlib

    rec = dict(doc)
    rec["record"] = {
        "label": label,
        "source": str(cand_path),
        "git_sha": doc.get("git_sha"),
        "timestamp": doc.get("timestamp"),
        "workers": doc.get("workers"),
    }
    body = json.dumps(rec, indent=2, sort_keys=True) + "\n"
    snapshot_dir.mkdir(parents=True, exist_ok=True)
    dest = snapshot_dir / cand_path.name
    if dest.exists() and dest.read_text(encoding="utf-8") != body:
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:8]
        dest = snapshot_dir / f"{cand_path.stem}-{digest}{cand_path.suffix}"
    dest.write_text(body, encoding="utf-8")
    print(f"bench_compare: snapshot archived to {dest}")
    return dest


def write_record(path: Path, doc: dict) -> None:
    """Persist the delta table (CI archives the matcher's vector against
    incremental speedup and the DSE backends' wall-time delta this way);
    never changes the exit status."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"bench_compare: delta record written to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json snapshots, fail on stage regression"
    )
    parser.add_argument("paths", nargs="*",
                        help="explicit BASELINE CANDIDATE pair (else scan --dir)")
    parser.add_argument("--rerun", type=Path, action="append", default=[],
                        help="another run of the candidate's command; stages are "
                             "compared at their median over the runs (repeatable)")
    parser.add_argument("--dir", type=Path, default=Path("."),
                        help="directory scanned for BENCH_*.json when no paths given")
    parser.add_argument("--max-regress", type=float, default=25.0,
                        help="max allowed stage wall-time growth in percent")
    parser.add_argument("--min-wall", type=float, default=0.05,
                        help="baseline seconds below which a stage cannot fail")
    parser.add_argument("--record", type=Path, default=None,
                        help="write the delta table as JSON here (informational; "
                             "does not affect pass/fail)")
    parser.add_argument("--snapshot-dir", type=Path, default=None,
                        help="archive the candidate snapshot (with a 'record' "
                             "provenance block) into this perf-trajectory dir")
    parser.add_argument("--label", default=None,
                        help="provenance label for --snapshot-dir (e.g. the CI job "
                             "or scheduler backend that produced the candidate)")
    args = parser.parse_args(argv)

    # CI invokes this as `bench_compare.py "$(ls -t ...)" "$(ls -t ...)"`;
    # on a fresh checkout a substitution expands to the empty string, so
    # drop blank arguments before deciding which mode we are in. Paths
    # stay strings up to here because Path("") normalizes to ".".
    paths = [Path(p) for p in args.paths if p.strip()]
    if len(paths) > 2:
        parser.error("expected exactly two paths (BASELINE CANDIDATE) or none")
    if len(paths) == 1:
        print(
            f"bench_compare: no baseline to compare {paths[0]} against; "
            "first run — nothing to guard"
        )
        if args.snapshot_dir:
            only = load_runs(paths[0], args.rerun)
            if only is not None:
                snapshot_candidate(paths[0], only, args.snapshot_dir, args.label)
        if args.record:
            write_record(args.record, {"skipped": "no baseline"})
        return 0
    if paths:
        base_path, cand_path = paths
    else:
        pair = pick_newest_two(args.dir)
        if pair is None:
            print(f"bench_compare: fewer than two BENCH_*.json in {args.dir}; nothing to compare")
            if args.record:
                write_record(args.record, {"skipped": "fewer than two snapshots"})
            return 0
        base_path, cand_path = pair

    base, cand = load_bench(base_path), load_runs(cand_path, args.rerun)
    if cand is not None and args.snapshot_dir:
        snapshot_candidate(cand_path, cand, args.snapshot_dir, args.label)
    if base is None or cand is None:
        print("bench_compare: unusable snapshot(s); nothing to guard")
        if args.record:
            write_record(args.record, {"skipped": "unusable snapshot"})
        return 0
    print(f"baseline:  {base_path} (sha {str(base.get('git_sha'))[:12]})")
    runs = f", median of {cand['median_of']} runs" if "median_of" in cand else ""
    print(f"candidate: {cand_path} (sha {str(cand.get('git_sha'))[:12]}{runs})")
    print()
    bw, cw = base.get("workers", 1) or 1, cand.get("workers", 1) or 1
    if bw != cw:
        # Stage walls are summed across worker processes, so runs at
        # different worker counts are not comparable.
        print(
            f"bench_compare: worker counts differ (baseline {bw}, candidate {cw}); "
            "stage walls are per-process sums — skipping comparison"
        )
        if args.record:
            write_record(args.record, {"skipped": f"worker mismatch ({bw} vs {cw})"})
        return 0
    failures, rows = compare(base, cand, args.max_regress, args.min_wall)
    print()
    if args.record:
        b_wall = (base.get("profile") or {}).get("total_wall_s")
        c_wall = (cand.get("profile") or {}).get("total_wall_s")
        write_record(args.record, {
            "baseline": str(base_path),
            "candidate": str(cand_path),
            "baseline_sha": base.get("git_sha"),
            "candidate_sha": cand.get("git_sha"),
            "workers": bw,
            "baseline_total_wall_s": b_wall,
            "candidate_total_wall_s": c_wall,
            "total_wall_delta_pct": (
                round(100.0 * (c_wall - b_wall) / b_wall, 2)
                if b_wall and c_wall else None
            ),
            "stages": rows,
            "failures": failures,
            "passed": not failures,
        })
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("bench_compare: no stage regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
