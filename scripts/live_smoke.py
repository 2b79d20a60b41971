#!/usr/bin/env python
"""Live telemetry smoke check: stream, scrape, and diff against a plain run.

Usage::

    PYTHONPATH=src python scripts/live_smoke.py [--apps a,b] [--scale 64]
        [--workers 4] [--fault flaky:<cell>:1] [--report-dir DIR]

Runs the analysis matrix twice against throwaway cache directories:

1. plain reference — no live telemetry at all;
2. live run — event bus + non-TTY ``LiveView`` + a background
   ``/metrics`` server, scraped *while cells execute* (each cell
   completion triggers a scrape), optionally under an injected fault.

The checks are the observability layer's CI teeth: every mid-run scrape
must parse and round-trip against the live registry's projection, the
view must have logged progress lines, and the live run's merged results
and cache artifacts must be byte-identical to the plain reference —
streaming is a side-channel, never a participant.

With ``--report-dir`` the live run's report.md/report.json/BENCH are
written there for CI artifact upload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hfast import cli  # noqa: E402
from hfast.cache import ReproCache  # noqa: E402
from hfast.obs.analytics import TraceTree, attribution, critical_path  # noqa: E402
from hfast.obs.live import LiveView  # noqa: E402
from hfast.obs.profile import Observability  # noqa: E402
from hfast.obs.prom import (  # noqa: E402
    MetricsServer,
    parse_prometheus,
    prometheus_projection,
    render_registry,
)
from hfast.obs.report import build_report, write_report  # noqa: E402
from hfast.obs.stream import EventBus  # noqa: E402
from hfast.pipeline import run_pipeline  # noqa: E402
from hfast.sched.faults import FAULT_ENV_VAR  # noqa: E402
from hfast.spec import ExecOptions  # noqa: E402

DEFAULT_APPS = ["cactus", "gtc", "lbmhd", "paratec"]


def cache_digests(cache_dir: Path) -> dict[str, str]:
    """sha256 of every repro-cache entry under ``cache_dir``, by file name.
    A cache with no entries exits: two empty caches must not match."""
    entries = ReproCache(cache_dir, readonly=True).list_entries()
    if not entries:
        raise SystemExit(f"live_smoke: no repro-cache entries under {cache_dir}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="verify live telemetry is observable and side-effect-free"
    )
    parser.add_argument("--apps", default=",".join(DEFAULT_APPS))
    parser.add_argument("--scale", type=int, default=64, help="rank count per app")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--fault", default=None,
                        help="optional HFAST_FAULT_INJECT spec for the live leg")
    parser.add_argument("--report-dir", default=None,
                        help="write the live run's report + BENCH artifacts here")
    args = parser.parse_args(argv)

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    scales = {app: [args.scale] for app in apps}
    problems: list[str] = []

    with tempfile.TemporaryDirectory(prefix="hfast-live-") as td:
        base = Path(td)
        print(f"live_smoke: {len(apps)} apps @ p{args.scale}, {args.workers} workers")

        # Plain reference: live machinery entirely absent.
        ref_obs = Observability(enabled=True)
        os.environ.pop(FAULT_ENV_VAR, None)
        reference = run_pipeline(
            apps=apps, scales=scales, cache_dir=str(base / "plain"),
            obs=ref_obs, argv=["live_smoke"], options=ExecOptions(workers=1, bench_dir=None),
        )
        print(f"plain reference: {len(reference['results'])} cells ok")

        # Live leg: bus + non-TTY view + /metrics scraped on every cell done.
        obs = Observability(enabled=True)
        bus = EventBus()
        view = LiveView(force_tty=False, log_interval=0.1)
        bus.subscribe(view.handle)
        server = MetricsServer(lambda: render_registry(obs.metrics), port=0).start()
        scrapes: list[str] = []

        def scrape_on_done(event: dict) -> None:
            if event.get("event") == "cell_state" and event.get("state") == "done":
                with urllib.request.urlopen(server.url, timeout=10) as resp:
                    scrapes.append(resp.read().decode("utf-8"))

        bus.subscribe(scrape_on_done)
        if args.fault:
            os.environ[FAULT_ENV_VAR] = args.fault
        view.start()
        try:
            live = run_pipeline(
                apps=apps, scales=scales, cache_dir=str(base / "live"),
                obs=obs, argv=["live_smoke"], bus=bus,
                options=ExecOptions(scheduler="stealing", workers=args.workers,
                                    retry_backoff=0.05, bench_dir=None),
            )
        finally:
            view.stop()
            os.environ.pop(FAULT_ENV_VAR, None)

        # Final scrape after the run, then shut the server down.
        with urllib.request.urlopen(server.url, timeout=10) as resp:
            final = resp.read().decode("utf-8")
        server.stop()

        print(
            f"live leg: {bus.published} bus events, {len(scrapes)} mid-run scrapes, "
            f"{len(live['anomalies'])} anomalies"
        )

        # 1. Every scrape parses; the final one round-trips the registry.
        for i, text in enumerate([*scrapes, final]):
            try:
                parse_prometheus(text)
            except ValueError as exc:
                problems.append(f"scrape {i} is not valid exposition text: {exc}")
        if parse_prometheus(final) != prometheus_projection(obs.metrics.to_dict()):
            problems.append("final /metrics scrape does not round-trip the registry")
        if not scrapes:
            problems.append("no mid-run scrape happened (no cell_state done event?)")
        if "hfast_pipeline_apps_analyzed" not in final:
            problems.append("final scrape is missing pipeline metrics")

        # 2. The view consumed the stream and logged progress.
        if view.snapshot()["counters"]["events"] < len(apps):
            problems.append("live view saw almost no events")
        if not view.snapshot()["done"]:
            problems.append("live view never saw run_end")

        # 3. Side-channel contract: live output == plain output.
        if live["manifest"]["failed_cells"]:
            problems.append(f"live leg failed cells: {live['manifest']['failed_cells']}")
        if live["results"] != reference["results"]:
            problems.append("live run results diverge from the plain reference")
        ref_d, live_d = cache_digests(base / "plain"), cache_digests(base / "live")
        if ref_d != live_d:
            problems.append("live run cache artifacts diverge from the plain reference")

        # 4. Post-run trace analytics: the live leg's trace must support
        # the full `hfast trace` toolchain (critical path, rollup,
        # scheduler attribution), proving the observability loop closes
        # on real fault-injected runs, not just unit fixtures.
        trace_path = Path(args.report_dir or td) / "trace.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with trace_path.open("w", encoding="utf-8") as fh:
            for ev in obs.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")
        tree = TraceTree.load(trace_path)
        cp = critical_path(tree)
        if not cp or cp[0]["name"] != "pipeline":
            problems.append("trace analytics: critical path missing or not rooted at pipeline")
        if len(tree.cells()) != len(apps):
            problems.append(
                f"trace analytics: expected {len(apps)} cell spans, got {len(tree.cells())}"
            )
        if attribution(tree) is None:
            problems.append("trace analytics: no cell_timing events for attribution")
        if cli.main(["trace", "summary", str(trace_path)]) != 0:
            problems.append("`hfast trace summary` failed on the live trace")
        else:
            print(f"trace analytics: critical path depth {len(cp)}, "
                  f"{len(tree.cells())} cells attributed")

        if args.report_dir:
            paths = write_report(
                build_report(obs.events), args.report_dir, bench_dir=args.report_dir
            )
            for kind, path in paths.items():
                print(f"{kind}: {path}")

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print("live_smoke: streamed, scraped, and byte-identical to the plain reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
