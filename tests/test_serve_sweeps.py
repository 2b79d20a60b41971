"""Sweep jobs over HTTP + result-store LRU eviction.

The service-mode contract for the DSE subsystem: a frontier fetched
from ``POST /v1/sweeps`` is byte-identical to what a direct
:func:`run_search` produces for the same spec, resubmissions are served
from the content-addressed store, and malformed sweep payloads get the
same structured 400s as analyze jobs. The eviction tests pin the
``--store-max-bytes`` LRU semantics at both the store and daemon layer.
"""

import json
import os

import pytest

from hfast.dse.search import SearchSpec, frontier_bytes, run_search
from hfast.dse.space import SearchSpace
from hfast.obs.prom import parse_prometheus
from hfast.serve.store import ResultStore
from hfast.spec import ExecOptions
from serve_util import ServiceThread, make_config, request, wait_for_job

SPACE_DOC = {
    "circuits": [1, 4],
    "reconfig_costs": [0.0],
    "timesteps": [2],
}
SWEEP = {"app": "gtc", "nranks": 8, "space": SPACE_DOC, "strategy": "grid", "seed": 0}


def _direct_frontier(tmp_path):
    spec = SearchSpec(
        app="gtc", nranks=8, space=SearchSpace.from_doc(SPACE_DOC), strategy="grid", seed=0
    )
    out = run_search(
        spec,
        cache_dir=str(tmp_path / "direct"),
        store=False,
        options=ExecOptions(journal_dir=str(tmp_path / "direct-journal"), bench_dir=None),
    )
    return spec, out["frontier"]


def _metric(port, name):
    _, _, raw = request(port, "GET", "/metrics")
    entry = parse_prometheus(raw.decode("utf-8")).get(name)
    return None if entry is None else entry["value"]


# -- sweep jobs over the wire ------------------------------------------------


def test_sweep_end_to_end_byte_identical_with_direct_search(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        status, _, raw = request(service.port, "POST", "/v1/sweeps", SWEEP)
        assert status == 202, raw
        doc = json.loads(raw)
        job = wait_for_job(service.port, doc["job_id"])
        assert job["status"] == "done", job
        assert job["kind"] == "sweep"

        status, headers, served = request(service.port, "GET", job["result_url"])
        assert status == 200
        assert headers["content-type"] == "application/json"

    spec, frontier = _direct_frontier(tmp_path)
    # The sweep key is the search spec's content address...
    assert doc["key"] == spec.key == frontier["search_key"]
    # ...and the served artifact is byte-for-byte the direct one.
    assert served == frontier_bytes(frontier)


def test_sweep_resubmission_served_from_store(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        _, _, raw = request(service.port, "POST", "/v1/sweeps", SWEEP)
        first = json.loads(raw)
        wait_for_job(service.port, first["job_id"])

        status, _, raw = request(service.port, "POST", "/v1/sweeps", SWEEP)
        assert status == 200
        doc = json.loads(raw)
        assert doc["cached"] is True
        assert doc["result_url"] == f"/v1/results/{first['key']}"


def test_sweep_validation_errors_merge_space_and_spec(tmp_path):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        status, _, raw = request(
            service.port,
            "POST",
            "/v1/sweeps",
            {"app": "gtc", "bogus": 1, "space": {"circuits": []}},
        )
        assert status == 400
        errors = json.loads(raw)["errors"]
        msgs = "\n".join(errors)
        assert "bogus" in msgs  # unknown field
        assert "nranks" in msgs  # missing required field
        assert "circuits" in msgs  # space-level validation


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({**SWEEP, "space": {**SPACE_DOC, "matchers": ["vector"]}},
         "space: unknown field(s): matchers"),
        ({**SWEEP, "backend": "vector"}, "unknown field(s): backend"),
        ({**SWEEP, "nranks": True}, "nranks: expected an integer"),
        ({**SWEEP, "timing_seed": "x"}, "timing_seed: expected an integer"),
        ({**SWEEP, "timing_seed": 1.5}, "timing_seed: expected an integer"),
        ({**SWEEP, "timing_seed": True}, "timing_seed: expected an integer"),
        ({**SWEEP, "timing_seed": None}, "timing_seed: expected an integer"),
        ({**SWEEP, "population": True}, "population: expected an integer"),
        ({**SWEEP, "generations": True}, "generations: expected an integer"),
    ],
    ids=[
        "space-matchers", "backend", "nranks-bool", "timing-seed-str", "timing-seed-float",
        "timing-seed-bool", "timing-seed-null", "population-bool", "generations-bool",
    ],
)
def test_sweep_rejects_removed_fields(tmp_path, payload, needle):
    config = make_config(tmp_path)
    with ServiceThread(config) as service:
        status, _, raw = request(service.port, "POST", "/v1/sweeps", payload)
        assert status == 400
        assert any(needle in e for e in json.loads(raw)["errors"]), raw


# -- result-store LRU eviction ----------------------------------------------


def _key(ch):
    return ch * 64


def test_store_evicts_least_recently_used_first(tmp_path):
    evicted = []
    store = ResultStore(tmp_path, max_bytes=400, on_evict=evicted.append)
    pad = {"pad": "x" * 100}
    for i, ch in enumerate(("a", "b", "c", "d")):
        path = store.put(_key(ch), pad)
        # Pin mtimes so LRU order never depends on filesystem granularity.
        os.utime(path, (1000 + i, 1000 + i))
    store.put(_key("e"), pad)
    assert evicted == [_key("a"), _key("b")]
    assert not store.has(_key("a")) and store.has(_key("e"))


def test_store_read_touch_spares_a_key(tmp_path):
    store = ResultStore(tmp_path, max_bytes=250, on_evict=lambda k: None)
    pad = {"pad": "x" * 100}
    a = store.put(_key("a"), pad)
    b = store.put(_key("b"), pad)
    os.utime(a, (1000, 1000))
    os.utime(b, (2000, 2000))
    store.get_bytes(_key("a"))  # touch: now "b" is the LRU entry
    store.put(_key("c"), pad)
    assert store.has(_key("a")) and not store.has(_key("b"))


def test_store_never_evicts_the_just_written_artifact(tmp_path):
    evicted = []
    store = ResultStore(tmp_path, max_bytes=10, on_evict=evicted.append)
    store.put(_key("a"), {"pad": "x" * 500})  # alone over budget: survives
    assert store.has(_key("a")) and evicted == []
    store.put(_key("b"), {"pad": "y" * 500})
    assert store.has(_key("b")) and evicted == [_key("a")]


def test_store_rejects_nonpositive_budget(tmp_path):
    with pytest.raises(ValueError):
        ResultStore(tmp_path, max_bytes=0)
    with pytest.raises(ValueError):
        ResultStore(tmp_path, max_bytes=-5)


def test_daemon_eviction_metric_and_store_cap(tmp_path):
    # A 1-byte budget means every new result evicts its predecessor
    # (the just-written artifact itself always survives).
    config = make_config(tmp_path, store_max_bytes=1)
    with ServiceThread(config) as service:
        _, _, raw = request(service.port, "POST", "/v1/jobs", {"app": "gtc", "nranks": 8})
        first = json.loads(raw)
        wait_for_job(service.port, first["job_id"])
        assert _metric(service.port, "hfast_serve_store_evictions_total") in (None, 0.0)

        _, _, raw = request(service.port, "POST", "/v1/jobs", {"app": "cactus", "nranks": 8})
        second = json.loads(raw)
        wait_for_job(service.port, second["job_id"])
        assert _metric(service.port, "hfast_serve_store_evictions_total") == 1.0

        status, _, _ = request(service.port, "GET", f"/v1/results/{first['key']}")
        assert status == 404  # evicted
        status, _, _ = request(service.port, "GET", f"/v1/results/{second['key']}")
        assert status == 200
