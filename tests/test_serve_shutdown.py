"""Graceful shutdown, crash recovery, and journal resume for `hfast serve`.

The drain contract: on SIGTERM (or a programmatic drain) the daemon
stops admitting work with ``503``, runs every in-flight job to
completion, persists its result, and only then exits — so a restarted
daemon can serve the result straight from the content-addressed store.
Jobs a daemon crashed under are re-admitted on the next boot from the
job ledger, resuming from the scheduler journal when one survived.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from hfast.sched import faults
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.serve.store import JobLedger, ResultStore
from hfast.spec import RunSpec
from serve_util import ServiceThread, make_config, request, wait_for_job

SPEC = {"app": "cactus", "nranks": 8}
REPO_ROOT = Path(__file__).resolve().parent.parent


def test_drain_completes_inflight_job_and_result_survives_restart(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.8)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:cactus_p8:99")
    config = make_config(tmp_path)
    service = ServiceThread(config).start()
    port = service.port
    try:
        status, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        assert status == 202
        doc = json.loads(raw)

        # Wait until the job is observably running, then drain from a
        # separate thread (exactly what the SIGTERM handler does).
        for _ in range(100):
            health = json.loads(request(port, "GET", "/healthz")[2])
            if health["running"] >= 1:
                break
            time.sleep(0.02)
        assert health["running"] >= 1

        drainer = threading.Thread(target=service.drain)
        drainer.start()
        # Mid-drain: reads work, writes are refused with Retry-After.
        time.sleep(0.05)
        status, headers, raw = request(port, "POST", "/v1/jobs", {**SPEC, "timing_seed": 9})
        assert status == 503
        assert "retry-after" in headers
        health = json.loads(request(port, "GET", "/healthz")[2])
        assert health["status"] == "draining"
        drainer.join(timeout=120)
        assert not drainer.is_alive()
    finally:
        service.stop()

    # The in-flight job finished during the drain and its artifact is
    # durable: a fresh daemon on the same state dir serves it.
    assert ResultStore(tmp_path / "serve" / "results").has(doc["key"])
    monkeypatch.delenv(FAULT_ENV_VAR)
    with ServiceThread(make_config(tmp_path)) as restarted:
        status, _, served = request(restarted.port, "GET", f"/v1/results/{doc['key']}")
        assert status == 200 and served
        # And the restarted daemon reports the prior job as done.
        status, _, raw = request(restarted.port, "GET", f"/v1/jobs/{doc['job_id']}")
        assert status == 200
        assert json.loads(raw)["status"] == "done"


def test_restart_reexecutes_job_left_queued_by_a_crash(tmp_path):
    spec = RunSpec.from_wire(SPEC)
    ledger = JobLedger(tmp_path / "serve" / "jobs")
    # Simulate a daemon that died right after admission: a ledger record
    # exists, no journal, no result.
    ledger.write(
        {
            "job_id": "crashjob-000001",
            "key": spec.key,
            "cell": spec.cell_key,
            "status": "queued",
            "run_id": "20260101-000000-dead00",
            "spec": spec.to_wire(),
        }
    )
    with ServiceThread(make_config(tmp_path)) as service:
        job = wait_for_job(service.port, "crashjob-000001")
        assert job["status"] == "done"
        assert job["recovered"] is True
        status, _, served = request(service.port, "GET", f"/v1/results/{spec.key}")
        assert status == 200 and served


def test_restart_resumes_interrupted_job_from_journal(tmp_path):
    """A journaled cell is replayed, not re-run, and bytes are identical."""
    spec = RunSpec.from_wire(SPEC)
    config = make_config(tmp_path, scheduler="stealing")
    with ServiceThread(config) as service:
        _, _, raw = request(service.port, "POST", "/v1/jobs", SPEC)
        doc = json.loads(raw)
        job = wait_for_job(service.port, doc["job_id"])
        assert job["status"] == "done"
        run_id = job["run_id"]

    store = ResultStore(tmp_path / "serve" / "results")
    original = store.get_bytes(spec.key)
    assert original is not None

    # Rewind to mid-crash: result gone, ledger says running, journal intact.
    (store.root / f"{spec.key}.json").unlink()
    ledger = JobLedger(tmp_path / "serve" / "jobs")
    rec = ledger.read(doc["job_id"])
    rec["status"] = "running"
    ledger.write(rec)
    assert (tmp_path / "serve" / "journal" / f"{run_id}.jsonl").is_file()

    with ServiceThread(make_config(tmp_path, scheduler="stealing")) as service:
        job = wait_for_job(service.port, doc["job_id"])
        assert job["status"] == "done"
        assert job["recovered"] is True
        # The cell came out of the journal (replayed, not re-executed)...
        assert job["scheduler"]["resumed"] is True
        assert job["scheduler"]["cells_from_journal"] == 1
        # ...and the re-materialized artifact is byte-identical.
        status, _, served = request(service.port, "GET", f"/v1/results/{spec.key}")
        assert status == 200
        assert served == original


def test_sigterm_drains_inflight_job_and_exits_zero(tmp_path):
    """Black-box drain: real process, real SIGTERM, result survives."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env[FAULT_ENV_VAR] = "slow:cactus_p8:1"  # first attempt sleeps ~1s
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "hfast", "serve",
            "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--serve-dir", str(tmp_path / "serve"),
            "--job-scheduler", "static",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on http://127.0.0.1:" in line, line
        port = int(line.rsplit(":", 1)[1])

        status, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        assert status == 202
        doc = json.loads(raw)
        for _ in range(200):
            health = json.loads(request(port, "GET", "/healthz")[2])
            if health["running"] >= 1:
                break
            time.sleep(0.02)
        assert health["running"] >= 1

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == 0, out
    assert "draining" in out and "drained" in out

    # The job the daemon was killed under finished and persisted.
    store = ResultStore(tmp_path / "serve" / "results")
    assert store.has(doc["key"])
    with ServiceThread(make_config(tmp_path)) as restarted:
        status, _, served = request(restarted.port, "GET", f"/v1/results/{doc['key']}")
        assert status == 200 and served
