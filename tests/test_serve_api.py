"""End-to-end tests of the ``hfast serve`` HTTP API.

The acceptance contract for service mode:

- a result fetched over HTTP is byte-identical to what a direct
  ``run_pipeline`` / ``python -m hfast analyze`` invocation produces for
  the same spec (including the repro-cache artifacts both write);
- an identical resubmission never re-executes — in flight it dedupes
  onto the running job, finished it is served from the content-addressed
  store, both asserted via the daemon's own metrics counters;
- malformed submissions get structured 4xx responses;
- admission past the configured budget gets 429 + ``Retry-After``.
"""

import json

import pytest

from conftest import cache_digests
from hfast import cli
from hfast.obs.prom import parse_prometheus
from hfast.pipeline import run_pipeline
from hfast.sched import faults
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.spec import ExecOptions
from serve_util import ServiceThread, make_config, request, wait_for_job

SPEC = {"app": "cactus", "nranks": 8}


def metrics_value(port: int, name: str) -> float | None:
    _, _, raw = request(port, "GET", "/metrics")
    parsed = parse_prometheus(raw.decode("utf-8"))
    entry = parsed.get(name)
    return None if entry is None else entry["value"]


def test_submit_poll_result_byte_identical(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        status, _, raw = request(service.port, "POST", "/v1/jobs", SPEC)
        assert status == 202
        doc = json.loads(raw)
        job = wait_for_job(service.port, doc["job_id"])
        assert job["status"] == "done"
        assert job["result_url"] == f"/v1/results/{doc['key']}"

        status, headers, served = request(service.port, "GET", job["result_url"])
        assert status == 200
        assert headers["content-type"] == "application/json"

    # Byte-identity against the pipeline entry point the CLI uses.
    out = run_pipeline(
        apps=["cactus"], scales={"cactus": [8]},
        cache_dir=str(tmp_path / "direct"), argv=["test"], options=ExecOptions(bench_dir=None),
    )
    direct = (json.dumps(out["results"][0], sort_keys=True) + "\n").encode("utf-8")
    assert served == direct


def test_served_overrides_reach_the_cell(tmp_path):
    """A job's overrides change what its cell computes, not only its key."""
    overrides = {"steps": 1, "ghost_bytes": 8}
    with ServiceThread(make_config(tmp_path)) as service:
        _, _, raw = request(service.port, "POST", "/v1/jobs", {**SPEC, "overrides": overrides})
        job = wait_for_job(service.port, json.loads(raw)["job_id"])
        assert job["status"] == "done"
        _, _, served = request(service.port, "GET", job["result_url"])
    result = json.loads(served)
    assert result["total_bytes"] == 384
    assert result["overrides"] == overrides

    out = run_pipeline(
        apps=["cactus"], scales={"cactus": [8]}, overrides=overrides,
        cache_dir=str(tmp_path / "direct"), argv=["test"], options=ExecOptions(bench_dir=None),
    )
    assert served == (json.dumps(out["results"][0], sort_keys=True) + "\n").encode("utf-8")


def test_serve_cache_artifacts_match_cli_analyze(tmp_path, capsys):
    """The daemon's repro-cache writes == a `hfast analyze` run's writes."""
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        _, _, raw = request(service.port, "POST", "/v1/jobs", SPEC)
        wait_for_job(service.port, json.loads(raw)["job_id"])

    cli_cache = tmp_path / "cli_cache"
    assert cli.main(
        ["analyze", "--apps", "cactus", "--scales", "8",
         "--cache-dir", str(cli_cache)]
    ) == 0
    capsys.readouterr()

    serve_cache = tmp_path / "cache"
    assert cache_digests(serve_cache) == cache_digests(cli_cache)


def test_finished_job_resubmission_is_cache_hit_without_reexecution(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        port = service.port
        _, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        first = json.loads(raw)
        wait_for_job(port, first["job_id"])
        assert metrics_value(port, "hfast_serve_jobs_executed") == 1.0

        # Same spec, different field order and defaults spelled out.
        resubmit = {"nranks": 8, "app": "cactus", "timing_seed": 0, "timesteps": 4}
        status, _, raw = request(port, "POST", "/v1/jobs", resubmit)
        doc = json.loads(raw)
        assert status == 200
        assert doc["cached"] is True
        assert doc["key"] == first["key"]

        assert metrics_value(port, "hfast_serve_jobs_executed") == 1.0
        assert metrics_value(port, "hfast_serve_cache_hits") == 1.0


def test_inflight_resubmission_dedupes_onto_running_job(tmp_path, monkeypatch):
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.5)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:cactus_p8:99")
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        port = service.port
        status, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        assert status == 202
        first = json.loads(raw)

        status, _, raw = request(port, "POST", "/v1/jobs", dict(SPEC))
        doc = json.loads(raw)
        assert status == 200
        assert doc["deduped"] is True
        assert doc["job_id"] == first["job_id"]

        job = wait_for_job(port, first["job_id"])
        assert job["status"] == "done"
        assert metrics_value(port, "hfast_serve_jobs_executed") == 1.0
        assert metrics_value(port, "hfast_serve_jobs_deduped") == 1.0


MALFORMED = [
    ("empty-body", None, b"", 400, None),
    ("invalid-json", None, b"{not json", 400, None),
    ("json-scalar", None, b"42", 400, None),
    ("json-array", None, b"[1, 2]", 400, None),
    ("missing-fields", {"app": "cactus"}, None, 400, None),
    ("unknown-app", {"app": "nonesuch", "nranks": 8}, None, 400, None),
    ("bad-nranks", {"app": "cactus", "nranks": "eight"}, None, 400, None),
    ("unknown-field", {"app": "cactus", "nranks": 8, "frobnicate": 1}, None, 400, None),
    # Fields removed in spec format 2 are unknown, whatever value they name.
    ("bad-matcher", {"app": "cactus", "nranks": 8, "matcher": "vector"}, None, 400,
     "unknown field(s): matcher"),
    ("bad-backend", {"app": "cactus", "nranks": 8, "backend": "vector"}, None, 400,
     "unknown field(s): backend"),
]


@pytest.mark.parametrize(
    "label,body,raw_body,expected,needle", MALFORMED, ids=[m[0] for m in MALFORMED]
)
def test_malformed_submission_table(tmp_path, label, body, raw_body, expected, needle):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        status, _, raw = request(
            service.port, "POST", "/v1/jobs", body=body, raw_body=raw_body
        )
        assert status == expected
        doc = json.loads(raw)
        assert "error" in doc
        # Validation failures carry the full per-field error list.
        if body is not None:
            assert doc.get("errors"), doc
        if needle is not None:
            assert any(needle in e for e in doc["errors"]), doc
        # Nothing was admitted.
        assert metrics_value(service.port, "hfast_serve_jobs_executed") in (None, 0.0)


def test_unknown_routes_and_methods(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        port = service.port
        assert request(port, "GET", "/nope")[0] == 404
        assert request(port, "GET", "/v1/jobs/no-such-job")[0] == 404
        assert request(port, "GET", "/v1/results/abc")[0] == 404
        assert request(port, "GET", "/v1/results/" + "0" * 64)[0] == 404
        assert request(port, "POST", "/healthz", {})[0] == 405
        assert request(port, "DELETE", "/v1/jobs")[0] == 405
        # Path traversal attempts must not reach the filesystem.
        assert request(port, "GET", "/v1/results/../../etc/passwd")[0] == 404


def test_healthz_and_metrics_shape(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        status, _, raw = request(service.port, "GET", "/healthz")
        assert status == 200
        health = json.loads(raw)
        assert health["status"] == "ok"
        assert health["running"] == 0

        status, headers, raw = request(service.port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        parse_prometheus(raw.decode("utf-8"))  # must be valid exposition text


def test_admission_budget_returns_429_with_retry_after(tmp_path, monkeypatch):
    monkeypatch.setattr(faults, "_SLOW_SECONDS", 0.6)
    monkeypatch.setenv(FAULT_ENV_VAR, "slow:cactus_p8:99")
    config = make_config(tmp_path, max_running=1, queue_limit=1)
    with ServiceThread(config) as service:
        port = service.port
        admitted = []
        # Distinct specs (timing_seed varies) so nothing dedupes.
        for seed in range(3):
            status, headers, raw = request(
                port, "POST", "/v1/jobs", {**SPEC, "timing_seed": seed}
            )
            if status == 202:
                admitted.append(json.loads(raw)["job_id"])
            else:
                assert status == 429
                assert "retry-after" in headers
                assert "error" in json.loads(raw)
        assert len(admitted) == 2  # max_running + queue_limit
        assert metrics_value(port, "hfast_serve_rejected_429") == 1.0

        for job_id in admitted:
            assert wait_for_job(port, job_id)["status"] == "done"

        # Budget freed: the rejected spec is admissible now.
        status, _, _ = request(port, "POST", "/v1/jobs", {**SPEC, "timing_seed": 2})
        assert status == 202


def test_events_endpoint_reflects_job_lifecycle(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        port = service.port
        _, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        wait_for_job(port, json.loads(raw)["job_id"])
        status, _, raw = request(port, "GET", "/v1/events?n=10")
        assert status == 200
        doc = json.loads(raw)
        kinds = [e.get("event") for e in doc["events"]]
        assert "job_start" in kinds and "job_done" in kinds

        assert request(port, "GET", "/v1/events?n=bogus")[0] == 400


def test_job_listing_includes_finished_jobs(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        port = service.port
        _, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        job_id = json.loads(raw)["job_id"]
        wait_for_job(port, job_id)
        status, _, raw = request(port, "GET", "/v1/jobs")
        assert status == 200
        listing = json.loads(raw)
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]
        assert listing["active"] == 0


def test_manifest_records_service_provenance(tmp_path):
    """The run manifest ties a served artifact back to its submission."""
    config = make_config(tmp_path, scheduler="stealing")
    with ServiceThread(config) as service:
        port = service.port
        _, _, raw = request(port, "POST", "/v1/jobs", SPEC)
        doc = json.loads(raw)
        job = wait_for_job(port, doc["job_id"])
        assert job["status"] == "done"
        assert job["run_id"] == doc["run_id"]
        assert job["scheduler"]["run_id"] == doc["run_id"]
