#!/usr/bin/env python
"""Design-space search determinism smoke: serial vs work-stealing.

Usage::

    PYTHONPATH=src python scripts/dse_smoke.py [--app gtc] [--scale 8]
        [--workers 4] [--artifacts-dir DIR]

Runs one tiny fixed-seed grid search twice through the real ``hfast
search`` CLI — once on the serial backend, once on the work-stealing
scheduler — and asserts the two frontier artifacts are byte-identical.
That is the DSE subsystem's acceptance contract: the frontier is a pure
function of (workload, space, seed, strategy), never of the execution
backend that happened to evaluate the candidates.

With ``--artifacts-dir`` both frontier files, the run reports, and the
per-backend BENCH snapshots are kept for CI artifact upload;
``bench_compare --record`` can then turn the two BENCH files into a
serial-vs-stealing search wall-time delta record.

Exit status: 0 when the artifacts match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hfast import cli  # noqa: E402

#: 2 x 2 x 2 = 8 candidates — small enough to stay under a second on a
#: warm cache while still exercising every searched dimension.
SPACE_ARGS = [
    "--circuits", "1,4",
    "--reconfig-costs", "0.0,0.001",
    "--timesteps", "2,4",
    "--strategy", "grid",
    "--seed", "0",
]


def run_one(label: str, scheduler_args: list[str], args, out_dir: Path) -> bytes:
    frontier = out_dir / f"frontier-{label}.json"
    argv = [
        "search", "--app", args.app, "--scale", str(args.scale),
        *SPACE_ARGS,
        "--no-store", "--strict",
        "--cache-dir", str(out_dir / f"cache-{label}"),
        "--journal-dir", str(out_dir / f"journal-{label}"),
        "--out", str(frontier),
        "--report-dir", str(out_dir / f"reports-{label}"),
        "--bench-dir", str(out_dir / f"bench-{label}"),
        *scheduler_args,
    ]
    print(f"dse_smoke: hfast {' '.join(argv)}")
    rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"dse_smoke: {label} search exited {rc}")
    return frontier.read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run one fixed-seed grid search on two backends, compare bytes"
    )
    parser.add_argument("--app", default="gtc")
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the stealing run")
    parser.add_argument("--artifacts-dir", default=None,
                        help="keep frontiers, reports, and BENCH snapshots here")
    args = parser.parse_args(argv)

    ctx = None
    if args.artifacts_dir:
        out_dir = Path(args.artifacts_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        ctx = tempfile.TemporaryDirectory(prefix="hfast-dse-")
        out_dir = Path(ctx.name)

    try:
        serial = run_one("serial", ["--workers", "1"], args, out_dir)
        stealing = run_one(
            "stealing",
            ["--scheduler", "stealing", "--workers", str(args.workers)],
            args,
            out_dir,
        )
        if serial != stealing:
            print("dse_smoke: FAIL — frontier artifacts differ between backends")
            return 1
        doc = json.loads(serial)
        print(
            f"dse_smoke: OK — {doc['evaluated']} candidates evaluated, "
            f"{len(doc['frontier'])} on the frontier "
            f"(search {doc['search_key'][:12]}); {len(serial)} bytes "
            f"identical on serial and work-stealing backends"
        )
        return 0
    finally:
        if ctx is not None:
            ctx.cleanup()


if __name__ == "__main__":
    sys.exit(main())
