"""/v1/events cursor pagination, the ring's seq bookkeeping, heartbeats.

Unit-level: :class:`RingLog.since` hands back per-event sequence
numbers, an idle poll leaves the cursor unchanged, and a client that
fell behind the ring's capacity learns exactly how many events it lost.
HTTP-level: the paginated shape, the legacy ``?n=`` shape (which must
stay seq-free), 400s on garbage, and heartbeat records arriving on the
bus while the daemon is otherwise idle. The daemon's structured log
(``<serve_dir>/logs/daemon.jsonl``) names every job it admitted and
finished, and ``hfast obs tail`` reads it back.
"""

import json
import time
from pathlib import Path

import pytest

from hfast import cli
from hfast.obs.logs import read_log_records
from hfast.obs.stream import EventBus, RingLog
from tests.serve_util import ServiceThread, make_config, request, wait_for_job

SPEC = {"app": "cactus", "nranks": 8}


# ---------------------------------------------------------------------------
# RingLog units


def test_since_returns_seq_stamped_events_and_advances_cursor():
    ring = RingLog(capacity=8)
    for i in range(3):
        ring.handle({"event": "e", "i": i})
    events, cursor, missed = ring.since(0)
    assert [e["seq"] for e in events] == [1, 2, 3]
    assert [e["i"] for e in events] == [0, 1, 2]
    assert cursor == 3 and missed == 0

    # Incremental poll: only the new event comes back.
    ring.handle({"event": "e", "i": 3})
    events, cursor, missed = ring.since(cursor)
    assert [(e["seq"], e["i"]) for e in events] == [(4, 3)]
    assert cursor == 4 and missed == 0


def test_since_idle_poll_keeps_cursor_and_reports_nothing():
    ring = RingLog(capacity=8)
    ring.handle({"event": "e"})
    _, cursor, _ = ring.since(0)
    events, cursor2, missed = ring.since(cursor)
    assert events == [] and cursor2 == cursor and missed == 0


def test_since_counts_events_that_rotated_out():
    ring = RingLog(capacity=4)
    for i in range(10):
        ring.handle({"event": "e", "i": i})
    # Client last saw seq 2; seqs 3-6 have rotated out (ring holds 7-10).
    events, cursor, missed = ring.since(2)
    assert [e["seq"] for e in events] == [7, 8, 9, 10]
    assert missed == 4 and cursor == 10
    # A brand-new client (cursor 0) missed everything before the ring.
    events, _, missed = ring.since(0)
    assert len(events) == 4 and missed == 6


def test_tail_shape_has_no_seq():
    ring = RingLog(capacity=4)
    ring.handle({"event": "e", "i": 0})
    ring.handle({"event": "e", "i": 1})
    assert ring.tail() == [{"event": "e", "i": 0}, {"event": "e", "i": 1}]
    assert ring.tail(1) == [{"event": "e", "i": 1}]


def test_ring_subscribed_to_bus_sequences_published_events():
    bus, ring = EventBus(), RingLog(capacity=16)
    bus.subscribe(ring.handle)
    for i in range(5):
        bus.publish({"event": "tick", "i": i})
    events, cursor, missed = ring.since(0)
    assert cursor == 5 and missed == 0
    assert [e["i"] for e in events] == list(range(5))


# ---------------------------------------------------------------------------
# HTTP surface


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serve-events")
    config = make_config(tmp_path, heartbeat_interval=0.05)
    with ServiceThread(config) as svc:
        yield svc


def tail_all(port, cursor=0):
    status, _headers, body = request(port, "GET", f"/v1/events?cursor={cursor}")
    assert status == 200
    return json.loads(body)


def test_cursor_tail_shape_and_job_lifecycle(service):
    doc = tail_all(service.port)
    assert set(doc) == {"seen", "cursor", "missed", "events"}
    base_cursor = doc["cursor"]

    status, _headers, body = request(service.port, "POST", "/v1/jobs", SPEC)
    assert status in (200, 202)
    job_id = json.loads(body)["job_id"]
    wait_for_job(service.port, job_id)

    doc = tail_all(service.port, cursor=base_cursor)
    assert doc["missed"] == 0
    assert all("seq" in e for e in doc["events"])
    seqs = [e["seq"] for e in doc["events"]]
    assert seqs == sorted(seqs) and (not seqs or seqs[0] > base_cursor)
    kinds = [e["event"] for e in doc["events"]]
    assert "job_start" in kinds and "job_done" in kinds

    # The cursor advanced past everything returned; polling again from
    # it yields only newer events (heartbeats at most).
    again = tail_all(service.port, cursor=doc["cursor"])
    assert {e["event"] for e in again["events"]} <= {"heartbeat"}


def test_daemon_log_records_each_job_with_correlation_ids(service, capsys):
    # Cells no other test here submits, so both are admitted as new jobs
    # rather than served from the result store.
    cells = {}
    for spec in ({"app": "gtc", "nranks": 8}, {"app": "lbmhd", "nranks": 8}):
        status, _headers, body = request(service.port, "POST", "/v1/jobs", spec)
        assert status == 202, body
        cells[json.loads(body)["job_id"]] = f"{spec['app']}_p{spec['nranks']}"
    for job_id in cells:
        assert wait_for_job(service.port, job_id)["status"] == "done"

    log = Path(service.config.serve_dir) / "logs" / "daemon.jsonl"
    # A job's status turns done just before its job_done record is written.
    deadline = time.monotonic() + 10
    while True:
        records = [r for r in read_log_records(log) if r.get("job_id") in cells]
        done = {r["job_id"]: r.get("cell") for r in records if r["event"] == "job_done"}
        if done == cells or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    admitted = {r["job_id"]: r.get("cell") for r in records if r["event"] == "job_admitted"}
    assert admitted == cells
    assert done == cells

    assert cli.main(["obs", "tail", str(log), "--event", "job_admitted"]) == 0
    tailed = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert {r["job_id"]: r["cell"] for r in tailed if r["job_id"] in cells} == cells


def test_heartbeat_records_arrive_while_idle(service):
    deadline = time.monotonic() + 10
    cursor = tail_all(service.port)["cursor"]
    beats = []
    while time.monotonic() < deadline and len(beats) < 2:
        doc = tail_all(service.port, cursor=cursor)
        cursor = doc["cursor"]
        beats.extend(e for e in doc["events"] if e["event"] == "heartbeat")
        time.sleep(0.05)
    assert len(beats) >= 2, "expected heartbeats at a 0.05s interval"
    for b in beats:
        assert {"seq", "ts", "running", "queued", "draining"} <= set(b)
        assert b["draining"] is False


def test_legacy_n_shape_is_unchanged(service):
    status, _headers, body = request(service.port, "GET", "/v1/events?n=5")
    assert status == 200
    doc = json.loads(body)
    assert set(doc) == {"seen", "events"}
    assert all("seq" not in e for e in doc["events"])
    assert len(doc["events"]) <= 5


def test_bad_cursor_and_bad_n_return_400(service):
    status, _headers, body = request(service.port, "GET", "/v1/events?cursor=bogus")
    assert status == 400 and b"cursor must be an integer" in body
    status, _headers, _body = request(service.port, "GET", "/v1/events?n=bogus")
    assert status == 400
