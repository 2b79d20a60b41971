#!/usr/bin/env python
"""Chaos determinism check: kill a worker mid-sweep, diff the outputs.

Usage::

    PYTHONPATH=src python scripts/chaos_check.py [--apps a,b] [--scale 64]
        [--workers 4] [--fault crash:<cell>:1]

Runs the analysis matrix three ways against throwaway cache directories:

1. serial reference — ``static`` scheduler, one process;
2. chaos run — ``stealing`` scheduler with an injected worker fault
   (default: SIGKILL the worker holding the first cell on attempt 1);
3. resume run — a stealing run whose poisoned cell exhausts its retries,
   then a ``--resume`` of that journal with the fault cleared.

Each recovered run's merged results and repro-cache artifacts must be
byte-identical to the serial reference; any divergence exits nonzero.
This is the CI teeth behind the scheduler's determinism-under-failure
contract.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hfast.cache import ReproCache  # noqa: E402
from hfast.obs.profile import Observability  # noqa: E402
from hfast.pipeline import run_pipeline  # noqa: E402
from hfast.sched.faults import FAULT_ENV_VAR  # noqa: E402
from hfast.spec import ExecOptions  # noqa: E402

DEFAULT_APPS = ["cactus", "gtc", "lbmhd", "paratec"]


def cache_digests(cache_dir: Path) -> dict[str, str]:
    """sha256 of every repro-cache entry under ``cache_dir``, by file name.
    A cache with no entries exits: two empty caches must not match."""
    entries = ReproCache(cache_dir, readonly=True).list_entries()
    if not entries:
        raise SystemExit(f"chaos_check: no repro-cache entries under {cache_dir}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in entries}


def run_sweep(
    cache_dir: Path,
    apps: list[str],
    scale: int,
    fault: str | None = None,
    **options,
) -> dict:
    """One pipeline run under ``options`` (:class:`~hfast.spec.ExecOptions`
    fields); ``fault`` is set in the env only for its duration."""
    old = os.environ.get(FAULT_ENV_VAR)
    if fault is not None:
        os.environ[FAULT_ENV_VAR] = fault
    else:
        os.environ.pop(FAULT_ENV_VAR, None)
    try:
        return run_pipeline(
            apps=apps,
            scales={app: [scale] for app in apps},
            cache_dir=str(cache_dir),
            obs=Observability.disabled(),
            argv=["chaos_check"],
            options=ExecOptions(bench_dir=None, **options),
        )
    finally:
        if old is None:
            os.environ.pop(FAULT_ENV_VAR, None)
        else:
            os.environ[FAULT_ENV_VAR] = old


def diff_outputs(name: str, reference: dict, ref_dir: Path, out: dict, out_dir: Path) -> list[str]:
    problems = []
    if out["manifest"]["failed_cells"]:
        problems.append(f"{name}: failed cells {out['manifest']['failed_cells']}")
    if out["results"] != reference["results"]:
        problems.append(f"{name}: merged results diverge from the serial reference")
    ref_d, out_d = cache_digests(ref_dir), cache_digests(out_dir)
    if ref_d != out_d:
        changed = sorted(
            k for k in set(ref_d) | set(out_d) if ref_d.get(k) != out_d.get(k)
        )
        problems.append(f"{name}: cache artifacts diverge: {', '.join(changed)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="verify scheduler determinism under injected worker failure"
    )
    parser.add_argument("--apps", default=",".join(DEFAULT_APPS),
                        help="comma-separated app list")
    parser.add_argument("--scale", type=int, default=64, help="rank count per app")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--fault", default=None,
                        help="fault spec for the chaos leg (default: crash first cell)")
    args = parser.parse_args(argv)

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    first_cell = f"{apps[0]}_p{args.scale}"
    fault = args.fault or f"crash:{first_cell}:1"

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="hfast-chaos-") as td:
        base = Path(td)
        print(f"chaos_check: {len(apps)} apps @ p{args.scale}, {args.workers} workers")

        serial = run_sweep(base / "serial", apps, args.scale)
        print(f"serial reference: {len(serial['results'])} cells ok")

        chaos = run_sweep(
            base / "chaos", apps, args.scale,
            scheduler="stealing", workers=args.workers, fault=fault,
        )
        sched = chaos["manifest"]["scheduler"]
        print(
            f"chaos leg ({fault}): workers_lost={sched['workers_lost']} "
            f"redispatches={sched['redispatches']} steals={sched['steals']}"
        )
        problems += diff_outputs("chaos", serial, base / "serial", chaos, base / "chaos")
        if sched["workers_lost"] < 1 and fault.startswith(("crash", "hang")):
            problems.append("chaos: injected worker fault never fired")

        # Resume leg: poison one cell until its retries exhaust, then
        # resume the journal with the fault cleared.
        poisoned = run_sweep(
            base / "resume", apps, args.scale,
            scheduler="stealing", workers=args.workers,
            fault=f"flaky:{first_cell}:99", max_retries=0,
        )
        run_id = poisoned["manifest"]["scheduler"]["run_id"]
        if poisoned["manifest"]["failed_cells"] != [first_cell]:
            problems.append(
                f"resume: expected only {first_cell} to fail, got "
                f"{poisoned['manifest']['failed_cells']}"
            )
        resumed = run_sweep(
            base / "resume", apps, args.scale,
            scheduler="stealing", workers=args.workers, resume=run_id,
        )
        sched = resumed["manifest"]["scheduler"]
        print(
            f"resume leg: run {run_id} replayed "
            f"{sched['cells_from_journal']}/{len(apps)} cells from journal"
        )
        problems += diff_outputs(
            "resume", serial, base / "serial", resumed, base / "resume"
        )
        if sched["cells_from_journal"] != len(apps) - 1:
            problems.append(
                f"resume: expected {len(apps) - 1} journal replays, "
                f"got {sched['cells_from_journal']}"
            )

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print("chaos_check: recovered runs byte-identical to the serial reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
