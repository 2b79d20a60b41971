from hfast.obs.profile import Observability, configure, get_obs, profiled
from hfast.obs.trace import JsonlSink


def test_ambient_default_is_disabled():
    assert get_obs().enabled is False


def test_configure_and_span_roundtrip():
    obs = configure(Observability(enabled=True))
    with get_obs().tracer.span("stage", app="gtc"):
        pass
    assert obs.events[0]["name"] == "stage"
    assert obs.events[0]["attrs"] == {"app": "gtc"}


def test_profiled_decorator_counts_and_traces():
    obs = configure(Observability(enabled=True))

    @profiled("my_stage")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    assert fn(2) == 3
    assert obs.metrics.counter("stage.my_stage.calls").value == 2
    assert [e["name"] for e in obs.events] == ["my_stage", "my_stage"]


def test_profiled_noop_when_disabled():
    configure(Observability.disabled())

    @profiled("quiet")
    def fn():
        return "ok"

    assert fn() == "ok"
    obs = configure(Observability(enabled=True))
    # enabling after decoration works: ambient resolved per call
    assert fn() == "ok"
    assert obs.events[0]["name"] == "quiet"


def test_manifest_event_first_in_jsonl(tmp_path):
    path = tmp_path / "t.jsonl"
    obs = Observability(trace_sink=JsonlSink(path))
    obs.tracer.emit_event("manifest", {"git_sha": "x"})
    with obs.tracer.span("s"):
        pass
    obs.close()
    import json

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["event"] == "manifest"
    assert lines[1]["event"] == "span"
    # the in-memory buffer mirrors the file
    assert [e["event"] for e in obs.events] == ["manifest", "span"]
