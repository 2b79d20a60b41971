#!/usr/bin/env python
"""Service-mode smoke check: boot the daemon, submit, scrape, verify.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--app cactus] [--scale 8]
        [--artifacts-dir DIR]

Boots the ``hfast serve`` daemon in-process on an ephemeral port (the
same :class:`~hfast.serve.daemon.ServiceThread` embedding the test suite
uses) and drives one full service round trip:

1. submit an analysis job over ``POST /v1/jobs`` (under an injected
   ``slow`` fault so the job is observably in flight);
2. scrape ``/metrics`` *mid-flight* — the exposition must parse and show
   the job running;
3. poll the job to completion and fetch its content-addressed result;
4. verify the served result against the golden fixture for the cell and
   against a direct in-process ``run_pipeline`` run (byte-identical);
5. resubmit the identical spec — it must be answered from the result
   cache without executing anything;
6. submit the cell again with trace ``overrides``: the served result
   must echo them and be byte-identical to a direct ``run_pipeline``
   run with the same overrides;
7. drain the daemon gracefully and check the unified trace contains the
   job's ``serve_job`` span.

With ``--artifacts-dir`` the daemon trace, the final /metrics scrape,
and the recent-events ring are written there for CI artifact upload.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hfast.obs.prom import parse_prometheus  # noqa: E402
from hfast.pipeline import run_pipeline  # noqa: E402
from hfast.sched.faults import FAULT_ENV_VAR  # noqa: E402
from hfast.serve.daemon import ServeConfig, ServiceThread  # noqa: E402
from hfast.spec import ExecOptions, RunSpec  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
#: One iteration: cactus, gtc and lbmhd read ``steps``, paratec ``fft_cycles``.
OVERRIDES = {"steps": 1, "fft_cycles": 1}


def request(
    port: int, method: str, path: str, body: dict | None = None
) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=json.dumps(body) if body is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def fetch_result(port: int, job_id: str, key: str, problems: list[str]) -> bytes:
    """Poll a job to a terminal state and return its served result."""
    for _ in range(1200):
        status, raw = request(port, "GET", f"/v1/jobs/{job_id}")
        job_doc = json.loads(raw)
        if job_doc.get("status") in ("done", "failed"):
            break
        time.sleep(0.1)
    if job_doc.get("status") != "done":
        problems.append(f"job did not complete: {job_doc}")
    status, served = request(port, "GET", f"/v1/results/{key}")
    if status != 200:
        problems.append(f"result fetch returned {status}")
    return served


def direct_bytes(args, cache_dir: Path, overrides: dict | None = None) -> bytes:
    """The result-store bytes of the cell run directly through ``run_pipeline``."""
    direct = run_pipeline(
        apps=[args.app], scales={args.app: [args.scale]}, overrides=overrides,
        cache_dir=str(cache_dir), argv=["serve_smoke"], options=ExecOptions(bench_dir=None),
    )
    return (json.dumps(direct["results"][0], sort_keys=True) + "\n").encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="boot the serve daemon and verify one service round trip"
    )
    parser.add_argument("--app", default="cactus")
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("--artifacts-dir", default=None,
                        help="write daemon trace + final scrape + events here")
    args = parser.parse_args(argv)

    cell = f"{args.app}_p{args.scale}"
    spec = {"app": args.app, "nranks": args.scale}
    problems: list[str] = []

    with tempfile.TemporaryDirectory(prefix="hfast-serve-") as td:
        base = Path(td)
        artifacts = Path(args.artifacts_dir) if args.artifacts_dir else base / "artifacts"
        artifacts.mkdir(parents=True, exist_ok=True)
        trace_path = artifacts / "serve_trace.jsonl"

        config = ServeConfig(
            port=0,
            cache_dir=str(base / "cache"),
            serve_dir=str(base / "serve"),
            scheduler="stealing",
            trace_out=str(trace_path),
            bench_dir=None,
        )

        # The first attempt of the smoke cell sleeps, so the daemon is
        # observably mid-job when we scrape.
        os.environ[FAULT_ENV_VAR] = f"slow:{cell}:1"
        try:
            with ServiceThread(config) as service:
                port = service.port
                print(f"serve_smoke: daemon on 127.0.0.1:{port}, cell {cell}")

                status, raw = request(port, "POST", "/v1/jobs", spec)
                if status != 202:
                    problems.append(f"submit returned {status}, expected 202: {raw!r}")
                doc = json.loads(raw)
                job_id, key = doc.get("job_id"), doc.get("key")
                if key != RunSpec.from_wire(spec).key:
                    problems.append("daemon key differs from local canonicalization")

                # Mid-flight: wait for the running gauge, then scrape.
                midflight = None
                for _ in range(100):
                    status, raw = request(port, "GET", "/healthz")
                    health = json.loads(raw)
                    if health.get("running", 0) >= 1:
                        status, scraped = request(port, "GET", "/metrics")
                        midflight = scraped.decode("utf-8")
                        break
                    time.sleep(0.05)
                if midflight is None:
                    problems.append("job never became observably running")
                else:
                    try:
                        parsed = parse_prometheus(midflight)
                    except ValueError as exc:
                        problems.append(f"mid-flight scrape does not parse: {exc}")
                    else:
                        if parsed.get("hfast_serve_running", {}).get("value") != 1.0:
                            problems.append("mid-flight scrape does not show the job running")
                        print("mid-flight /metrics scrape: parsed, job running")

                served = fetch_result(port, job_id, key, problems)
                summary = json.loads(served)

                # Golden fixture: the paper-facing numbers must match.
                golden_path = GOLDEN_DIR / f"{cell}.json"
                if golden_path.exists():
                    golden = json.loads(golden_path.read_text(encoding="utf-8"))
                    for field in ("total_bytes", "total_messages", "call_totals"):
                        if summary.get(field) != golden[field]:
                            problems.append(f"served {field} diverges from golden fixture")
                    if summary["topology"]["max_degree"] != golden["max_degree"]:
                        problems.append("served max_degree diverges from golden fixture")
                    print(f"golden fixture {golden_path.name}: matched")
                else:
                    problems.append(f"no golden fixture for {cell}")

                # Byte-identity against a direct pipeline run.
                os.environ.pop(FAULT_ENV_VAR, None)
                if served != direct_bytes(args, base / "direct_cache"):
                    problems.append("served result is not byte-identical to a direct run")
                else:
                    print(f"byte-identity: served == direct ({len(served)} bytes)")

                # Dedupe: identical resubmission is a cache hit, no execution.
                status, raw = request(port, "POST", "/v1/jobs", dict(spec))
                redoc = json.loads(raw)
                if not (status == 200 and redoc.get("cached")):
                    problems.append(f"resubmission not served from cache: {status} {redoc}")
                status, raw = request(port, "GET", "/metrics")
                final_scrape = raw.decode("utf-8")
                metrics = parse_prometheus(final_scrape)
                executed = metrics.get("hfast_serve_jobs_executed", {}).get("value")
                if executed != 1.0:
                    problems.append(f"expected exactly 1 executed job, metrics say {executed}")
                else:
                    print("dedupe: resubmission answered from cache, 1 execution total")

                # Overrides reach the cell: served == a direct run with them.
                status, raw = request(port, "POST", "/v1/jobs", {**spec, "overrides": OVERRIDES})
                doc = json.loads(raw)
                served = fetch_result(port, doc.get("job_id"), doc.get("key"), problems)
                if json.loads(served).get("overrides") != OVERRIDES:
                    problems.append("served result does not echo the submitted overrides")
                if served != direct_bytes(args, base / "direct_cache", OVERRIDES):
                    problems.append(
                        "served result with overrides is not byte-identical to a direct run"
                    )
                else:
                    print(f"overrides {OVERRIDES}: served == direct ({len(served)} bytes)")

                status, raw = request(port, "GET", "/v1/events?n=50")
                events_doc = json.loads(raw)

                (artifacts / "serve_metrics.prom").write_text(
                    final_scrape, encoding="utf-8"
                )
                (artifacts / "serve_events.json").write_text(
                    json.dumps(events_doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
        finally:
            os.environ.pop(FAULT_ENV_VAR, None)

        # Post-drain: the unified trace must contain the job's root span.
        trace_text = trace_path.read_text(encoding="utf-8") if trace_path.exists() else ""
        if '"serve_job"' not in trace_text:
            problems.append("daemon trace has no serve_job span after drain")
        else:
            print(f"daemon trace: {len(trace_text.splitlines())} events, serve_job rooted")

    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print(
        "serve_smoke: submitted, scraped mid-flight, byte-identical, deduped, "
        "overrides honoured, drained"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
