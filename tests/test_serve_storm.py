"""Storm and chaos tests for `hfast serve` (slow; CI service job).

A concurrent client burst against a tight admission budget must resolve
into exactly-once execution per distinct spec, 429s past the budget, and
no lost or duplicated work. Composing ``HFAST_FAULT_INJECT`` with the
service path must behave like the batch pipeline: flaky cells retry to
success under the stealing scheduler (byte-identical results), and
exhausted cells fail the job with a recorded error instead of wedging
the daemon.
"""

import json
import threading

import pytest

from hfast.obs.prom import parse_prometheus
from hfast.pipeline import run_pipeline
from hfast.sched import faults
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.spec import ExecOptions
from serve_util import ServiceThread, make_config, request, wait_for_job

pytestmark = pytest.mark.slow

SPEC = {"app": "cactus", "nranks": 8}


def scrape(port: int) -> dict:
    _, _, raw = request(port, "GET", "/metrics")
    return parse_prometheus(raw.decode("utf-8"))


def test_concurrent_client_storm_respects_admission_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.8)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:cactus_p8:99")
    config = make_config(tmp_path, max_running=2, queue_limit=4)
    budget = config.max_running + config.queue_limit
    n_clients = 12

    with ServiceThread(config) as service:
        port = service.port
        responses: list[tuple[int, dict]] = [None] * n_clients

        def client(i: int) -> None:
            status, _, raw = request(
                port, "POST", "/v1/jobs", {**SPEC, "timing_seed": i}
            )
            responses[i] = (status, json.loads(raw))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        admitted = [doc for status, doc in responses if status == 202]
        rejected = [doc for status, doc in responses if status == 429]
        assert {status for status, _ in responses} == {202, 429}
        # Every cell is slowed, so nothing finishes during the burst:
        # admission is exactly the configured budget, the rest bounce.
        assert len(admitted) == budget
        assert len(rejected) == n_clients - budget

        for doc in admitted:
            assert wait_for_job(port, doc["job_id"])["status"] == "done"

        metrics = scrape(port)
        assert metrics["hfast_serve_jobs_executed"]["value"] == budget
        assert metrics["hfast_serve_rejected_429"]["value"] == n_clients - budget
        assert metrics["hfast_serve_jobs_submitted"]["value"] == n_clients

        # Distinct specs produced distinct artifacts, all servable.
        keys = {doc["key"] for doc in admitted}
        assert len(keys) == budget
        for key in keys:
            assert request(port, "GET", f"/v1/results/{key}")[0] == 200


def test_storm_of_identical_specs_executes_once(tmp_path, monkeypatch):
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.6)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:cactus_p8:99")
    config = make_config(tmp_path, max_running=2, queue_limit=2)
    n_clients = 10

    with ServiceThread(config) as service:
        port = service.port
        responses: list[tuple[int, dict]] = [None] * n_clients

        def client(i: int) -> None:
            status, _, raw = request(port, "POST", "/v1/jobs", dict(SPEC))
            responses[i] = (status, json.loads(raw))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        # One admission; everyone else deduped onto it (or served cached
        # if they arrived after completion). Nobody was rejected: dedupe
        # does not consume admission budget.
        statuses = [status for status, _ in responses]
        assert statuses.count(202) == 1
        assert statuses.count(200) == n_clients - 1
        job_ids = {doc["job_id"] for _, doc in responses if "job_id" in doc}
        assert len(job_ids) == 1

        wait_for_job(port, next(iter(job_ids)))
        metrics = scrape(port)
        assert metrics["hfast_serve_jobs_executed"]["value"] == 1
        deduped = metrics.get("hfast_serve_jobs_deduped", {}).get("value", 0)
        cached = metrics.get("hfast_serve_cache_hits", {}).get("value", 0)
        assert deduped + cached == n_clients - 1


def test_flaky_fault_retries_to_byte_identical_result(tmp_path, monkeypatch):
    """Chaos x service: a flaky cell retries under the stealing scheduler
    and the served artifact matches a clean direct run byte-for-byte."""
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:cactus_p8:1")
    config = make_config(tmp_path, scheduler="stealing")
    with ServiceThread(config) as service:
        port = service.port
        status, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        assert status == 202
        doc = json.loads(raw)
        job = wait_for_job(port, doc["job_id"])
        assert job["status"] == "done"
        assert job["attempts"] >= 2  # the fault fired, the retry won
        assert job["scheduler"]["retries"] >= 1
        _, _, served = request(port, "GET", f"/v1/results/{doc['key']}")

    monkeypatch.delenv(FAULT_ENV_VAR)
    out = run_pipeline(
        apps=["cactus"], scales={"cactus": [8]},
        cache_dir=str(tmp_path / "clean"), argv=["test"], options=ExecOptions(bench_dir=None),
    )
    clean = (json.dumps(out["results"][0], sort_keys=True) + "\n").encode("utf-8")
    assert served == clean


def test_exhausted_fault_fails_job_with_recorded_error(tmp_path, monkeypatch):
    """A cell that fails every attempt fails the job, not the daemon."""
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:cactus_p8:99")
    # Stealing scheduler: the fault fires on all 1 + max_retries attempts,
    # so the retry budget is genuinely exhausted.
    config = make_config(tmp_path, scheduler="stealing")
    with ServiceThread(config) as service:
        port = service.port
        status, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        assert status == 202
        doc = json.loads(raw)
        job = wait_for_job(port, doc["job_id"])
        assert job["status"] == "failed"
        assert "cactus_p8" in job["error"]
        assert request(port, "GET", f"/v1/results/{doc['key']}")[0] == 404
        metrics = scrape(port)
        assert metrics["hfast_serve_jobs_failed"]["value"] == 1

        # The daemon is still healthy: clear the fault, resubmit, succeed.
        monkeypatch.delenv(FAULT_ENV_VAR)
        status, _, raw = request(port, "POST", "/v1/jobs", dict(SPEC))
        assert status == 202  # failed jobs are not cached; re-admission is real
        job = wait_for_job(port, json.loads(raw)["job_id"])
        assert job["status"] == "done"
