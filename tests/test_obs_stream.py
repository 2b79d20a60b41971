"""Live telemetry streaming and cross-worker trace propagation.

Covers the event bus in ``hfast.obs.stream``, the vocabulary a run
publishes on it, the scheduler's live event emission (``on_event``)
plus prior-attempt retention, and the structural contract: the merged
JSONL trace is ONE tree — every span and app_summary event's parent
chain resolves to the single run-root ``pipeline`` span, across the
serial and work-stealing backends, retries included.
"""

import io

import pytest

from hfast.obs.live import LiveView
from hfast.obs.profile import Observability
from hfast.obs.stream import EventBus
from hfast.pipeline import Cell, run_pipeline
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.sched.scheduler import run_stealing
from hfast.spec import ExecOptions

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}
CELL_ORDER = ["cactus_p8", "gtc_p8", "lbmhd_p8", "paratec_p8"]

#: Every event kind a pipeline run publishes on its bus.
BUS_EVENTS = {"run_start", "cell_state", "worker_lost", "anomaly", "run_end"}


# ---------------------------------------------------------------------------
# EventBus


def test_bus_fans_out_to_all_subscribers():
    bus = EventBus()
    a, b = [], []
    bus.subscribe(a.append)
    bus.subscribe(b.append)
    bus.publish({"event": "x"})
    assert a == b == [{"event": "x"}]
    assert bus.published == 1 and bus.dropped == 0


def test_bus_swallows_and_counts_subscriber_failures():
    bus = EventBus()
    good = []

    def bad(_event):
        raise RuntimeError("broken consumer")

    bus.subscribe(bad)
    bus.subscribe(good.append)
    bus.publish({"event": "x"})
    bus.publish({"event": "y"})
    assert [e["event"] for e in good] == ["x", "y"]
    assert bus.dropped == 2


def test_bus_unsubscribe_and_duplicate_subscribe():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    bus.subscribe(seen.append)  # idempotent
    bus.publish({"event": "x"})
    assert [e["event"] for e in seen] == ["x"]


# ---------------------------------------------------------------------------
# Scheduler: on_event stream + prior-attempt retention (toy executor)


def _toy_execute(task):
    ok = not (task["app"] == "gtc" and task["attempt"] == 1)
    return {
        "app": task["app"],
        "nranks": task["nranks"],
        "index": task["index"],
        "ok": ok,
        "error": None if ok else "boom",
        "summary": {"cell": task["index"]} if ok else None,
        "wall_s": 0.0,
        "events": [
            {"event": "span", "name": "work", "span_id": 1, "parent_id": None,
             "depth": 0, "wall_s": 0.0, "peak_rss_kb": 0, "attrs": {}}
        ],
        "metrics": {},
        "cache": {},
    }


def _cells():
    return [Cell(app=a, nranks=8, index=i) for i, a in enumerate(APPS)]


def _payload(cell, attempt):
    return {"app": cell.app, "nranks": cell.nranks, "index": cell.index}


def test_run_stealing_emits_live_events_and_keeps_prior_attempts():
    events = []
    options = ExecOptions(scheduler="stealing", workers=2, max_retries=2, retry_backoff=0.01)
    results, stats = run_stealing(_cells(), _payload, _toy_execute, options, on_event=events.append)

    gtc = results[1]
    assert gtc["ok"] and gtc["attempts"] == 2
    # The failed first attempt's events survive for the trace graft.
    (prior,) = gtc["prior_attempts"]
    assert prior["attempt"] == 1 and prior["error"] == "boom"
    assert [e["name"] for e in prior["events"]] == ["work"]
    # Clean cells carry no prior-attempt baggage.
    assert results[0].get("prior_attempts") in (None, [])

    states = [(e["cell"], e["state"]) for e in events if e.get("event") == "cell_state"]
    assert ("gtc_p8", "retry") in states
    assert ("gtc_p8", "done") in states
    for key in ("cactus_p8", "lbmhd_p8", "paratec_p8"):
        assert (key, "running") in states and (key, "done") in states
    # Stolen tasks are marked on their running transition.
    stolen = [e for e in events if e.get("event") == "cell_state"
              and e["state"] == "running" and e.get("stolen")]
    assert len(stolen) == stats["steals"]


def test_run_stealing_without_on_event_is_silent():
    options = ExecOptions(scheduler="stealing", workers=2)
    results, _ = run_stealing(_cells(), _payload, _toy_execute, options)
    assert len(results) == 4  # no bus, no crash: live path fully optional


# ---------------------------------------------------------------------------
# Pipeline live streaming (serial + stealing backends)


def run_live(cache_dir, workers=1, scheduler="static", **kwargs):
    bus = EventBus()
    received = []
    bus.subscribe(received.append)
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(cache_dir), obs=obs,
        argv=["test"], options=ExecOptions(scheduler=scheduler, workers=workers, bench_dir=None),
        bus=bus, **kwargs,
    )
    return out, obs, received


def test_serial_live_stream_carries_trace_context(tmp_path):
    out, obs, received = run_live(tmp_path / "c")

    kinds = [e["event"] for e in received]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    run_id = received[0]["run_id"]
    assert run_id
    assert [c["cell"] for c in received[0]["cells"]] == CELL_ORDER

    running = [e for e in received if e["event"] == "cell_state" and e["state"] == "running"]
    assert [e["cell"] for e in running] == CELL_ORDER
    assert all(e["worker"] == 0 and e["attempt"] == 1 for e in running)

    done = [e for e in received if e["event"] == "cell_state" and e["state"] == "done"]
    assert [e["cell"] for e in done] == CELL_ORDER
    assert received[-1]["failed_cells"] == [] and received[-1]["run_id"] == run_id

    # Side-channel contract: the live run id stays out of the buffer.
    assert all("run_id" not in e and "cell" not in e for e in obs.events)
    assert "run_id" not in out["manifest"].get("scheduler", {})


def test_stealing_live_stream_reports_cell_states(tmp_path):
    out, _obs, received = run_live(tmp_path / "c", workers=2, scheduler="stealing")

    run_id = out["manifest"]["scheduler"]["run_id"]
    assert received[0]["event"] == "run_start" and received[0]["run_id"] == run_id
    states = [(e["cell"], e["state"]) for e in received if e["event"] == "cell_state"]
    for key in CELL_ORDER:
        assert (key, "running") in states and (key, "done") in states


@pytest.mark.parametrize(
    "scheduler,workers,fault,gtc_attempts",
    [("static", 1, None, 1), ("stealing", 2, "flaky:gtc_p8:1", 2)],
    ids=["serial", "stealing-flaky"],
)
def test_bus_carries_only_scheduling_events(
    tmp_path, monkeypatch, scheduler, workers, fault, gtc_attempts
):
    """The parent publishes the run's scheduling facts and nothing from
    inside a cell, and the live view tracks every cell from them alone."""
    if fault is not None:
        monkeypatch.setenv(FAULT_ENV_VAR, fault)
    view = LiveView(out=io.StringIO(), force_tty=False)
    bus = EventBus()
    kinds = []
    bus.subscribe(lambda ev: kinds.append(ev["event"]))
    bus.subscribe(view.handle)
    run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "c"), obs=Observability(enabled=True),
        argv=["test"], bus=bus,
        options=ExecOptions(scheduler=scheduler, workers=workers, retry_backoff=0.01,
                            bench_dir=None),
    )
    assert set(kinds) <= BUS_EVENTS
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"

    snap = view.snapshot()
    assert snap["done"] and snap["order"] == CELL_ORDER
    assert {k: c["state"] for k, c in snap["cells"].items()} == dict.fromkeys(CELL_ORDER, "done")
    assert all(c["worker"] is not None for c in snap["cells"].values())
    assert snap["cells"]["gtc_p8"]["attempts"] == gtc_attempts


# ---------------------------------------------------------------------------
# Unified span tree (the tentpole structural contract)


def assert_single_tree(events):
    """Every span/app_summary parent chain must resolve to one run root."""
    spans = {}
    for e in events:
        if e["event"] == "span":
            assert e["span_id"] not in spans, "duplicate span id after merge"
            spans[e["span_id"]] = e
    roots = [e for e in spans.values() if e["parent_id"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "pipeline"
    root_id = roots[0]["span_id"]

    def resolve(pid):
        seen = set()
        while pid != root_id:
            assert pid in spans, f"dangling parent_id {pid}"
            assert pid not in seen, "parent cycle"
            seen.add(pid)
            pid = spans[pid]["parent_id"]

    for e in spans.values():
        if e["span_id"] == root_id:
            continue
        resolve(e["parent_id"])
        assert e["depth"] == spans[e["parent_id"]]["depth"] + 1
    for e in events:
        if e["event"] == "app_summary":
            resolve(e["parent_id"])
    return root_id, spans


@pytest.mark.parametrize("workers,scheduler", [(1, "static"), (4, "stealing")])
def test_merged_trace_is_one_tree_across_backends(tmp_path, workers, scheduler):
    obs = Observability(enabled=True)
    run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "c"), obs=obs,
        argv=["test"], options=ExecOptions(scheduler=scheduler, workers=workers, bench_dir=None),
    )
    root_id, spans = assert_single_tree(obs.events)

    cells = [e for e in spans.values() if e["name"] == "cell"]
    assert len(cells) == 4
    assert all(c["parent_id"] == root_id and c["depth"] == 1 for c in cells)
    assert [c["attrs"]["app"] for c in cells] == APPS  # merged in cell order
    for c in cells:
        kids = [e for e in spans.values() if e["parent_id"] == c["span_id"]]
        assert [k["name"] for k in kids] == ["analyze_app"]
        assert kids[0]["attrs"]["attempt"] == 1


def test_flaky_retry_attempts_are_siblings_not_duplicate_roots(tmp_path, monkeypatch):
    """Regression test: a retried cell must not fork a second trace root."""
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:1")
    obs = Observability(enabled=True)
    run_pipeline(
        apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "c"), obs=obs,
        argv=["test"],
        options=ExecOptions(scheduler="stealing", workers=2, retry_backoff=0.01, bench_dir=None),
    )
    root_id, spans = assert_single_tree(obs.events)

    gtc = [e for e in spans.values() if e["name"] == "cell" and e["attrs"]["app"] == "gtc"]
    assert len(gtc) == 1 and gtc[0]["attrs"]["attempts"] == 2 and gtc[0]["attrs"]["ok"]
    # The flaky fault killed attempt 1 before any span was emitted, so the
    # surviving subtree is the successful attempt, parented under the cell.
    kids = [e for e in spans.values() if e["parent_id"] == gtc[0]["span_id"]]
    assert [k["name"] for k in kids] == ["analyze_app"]
    assert kids[0]["attrs"]["attempt"] == 2


def test_failed_attempts_with_events_graft_as_attempt_tagged_siblings(tmp_path):
    """A genuine in-cell failure emits spans on every attempt; all of them
    must land under the one cell span, tagged with their attempt number."""
    cache_dir = tmp_path / "c"
    run_pipeline(apps=["gtc"], scales={"gtc": [8]}, cache_dir=str(cache_dir),
                 obs=Observability.disabled(), argv=["warm"], options=ExecOptions(bench_dir=None))
    (path,) = cache_dir.glob("gtc_p8_*.cols")
    path.write_bytes(path.read_bytes()[:100])  # truncated: fails validation

    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=["gtc"], scales={"gtc": [8]}, cache_dir=str(cache_dir), obs=obs,
        argv=["test"], store=False,
        options=ExecOptions(scheduler="stealing", workers=2, max_retries=1, retry_backoff=0.01,
                            bench_dir=None),
    )
    assert out["manifest"]["failed_cells"] == ["gtc_p8"]
    root_id, spans = assert_single_tree(obs.events)

    (cell,) = [e for e in spans.values() if e["name"] == "cell"]
    assert cell["attrs"]["attempts"] == 2 and not cell["attrs"]["ok"]
    kids = sorted(
        (e for e in spans.values() if e["parent_id"] == cell["span_id"]),
        key=lambda e: e["attrs"]["attempt"],
    )
    assert [k["name"] for k in kids] == ["analyze_app", "analyze_app"]
    assert [k["attrs"]["attempt"] for k in kids] == [1, 2]
    assert all("CacheValidationError" in k["error"] for k in kids)
