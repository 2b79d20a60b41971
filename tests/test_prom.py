"""Prometheus text exposition: rendering, parsing, and the /metrics server.

The contract under test: ``parse_prometheus(render_prometheus(s)) ==
prometheus_projection(s)`` for any registry snapshot — the exposition is
well-formed and lossless for everything the format can carry (counters,
gauges, histogram count/sum/buckets, min/max companion gauges).
"""

import urllib.error
import urllib.request

import pytest

from hfast.obs.metrics import MetricsRegistry
from hfast.obs.prom import (
    CONTENT_TYPE,
    MetricsServer,
    parse_prometheus,
    prom_name,
    prometheus_projection,
    render_prometheus,
    render_registry,
)
from hfast.spec import ExecOptions


def sample_registry():
    reg = MetricsRegistry()
    reg.counter("pipeline.apps_analyzed").inc(4)
    reg.counter("calls.MPI_Isend").inc(123456)
    reg.gauge("sched.max_queue_depth").set(7.5)
    h = reg.histogram("msg_size_bytes.gtc")
    for v, w in ((0, 3), (100, 10), (4096, 2), (5000, 1)):
        h.observe(v, weight=w)
    return reg


def test_prom_name_sanitization():
    assert prom_name("msg_size_bytes.gtc") == "hfast_msg_size_bytes_gtc"
    assert prom_name("calls.MPI_Isend") == "hfast_calls_MPI_Isend"
    assert prom_name("2fast") == "hfast__2fast"  # leading digit guarded
    assert prom_name("a-b c") == "hfast_a_b_c"


def test_round_trip_matches_projection():
    snap = sample_registry().to_dict()
    assert parse_prometheus(render_prometheus(snap)) == prometheus_projection(snap)


def test_round_trip_of_empty_registry():
    assert render_prometheus({}) == ""
    assert parse_prometheus("") == {} == prometheus_projection({})


def test_rendered_text_shape():
    text = render_prometheus(sample_registry().to_dict())
    lines = text.splitlines()
    assert "# TYPE hfast_pipeline_apps_analyzed counter" in lines
    assert "hfast_pipeline_apps_analyzed 4" in lines
    assert "# TYPE hfast_sched_max_queue_depth gauge" in lines
    assert "hfast_sched_max_queue_depth 7.5" in lines
    assert "# TYPE hfast_msg_size_bytes_gtc histogram" in lines
    # Buckets are cumulative and end at +Inf == count.
    assert 'hfast_msg_size_bytes_gtc_bucket{le="0"} 3' in lines
    assert 'hfast_msg_size_bytes_gtc_bucket{le="128"} 13' in lines
    assert 'hfast_msg_size_bytes_gtc_bucket{le="4096"} 15' in lines
    assert 'hfast_msg_size_bytes_gtc_bucket{le="8192"} 16' in lines
    assert 'hfast_msg_size_bytes_gtc_bucket{le="+Inf"} 16' in lines
    assert "hfast_msg_size_bytes_gtc_count 16" in lines
    # min/max ride along as companion gauges.
    assert "# TYPE hfast_msg_size_bytes_gtc_min gauge" in lines
    assert "hfast_msg_size_bytes_gtc_max 5000" in lines


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="unparseable"):
        parse_prometheus("this is { not exposition")


def test_empty_histogram_renders_wellformed():
    reg = MetricsRegistry()
    reg.histogram("msg_size_bytes.idle")  # declared, never observed
    snap = reg.to_dict()
    text = render_prometheus(snap)
    lines = text.splitlines()
    assert "# TYPE hfast_msg_size_bytes_idle histogram" in lines
    assert 'hfast_msg_size_bytes_idle_bucket{le="+Inf"} 0' in lines
    assert "hfast_msg_size_bytes_idle_count 0" in lines
    assert parse_prometheus(text) == prometheus_projection(snap)


def test_render_registry_from_live_pipeline_registry(tmp_path):
    from hfast.obs.profile import Observability
    from hfast.pipeline import run_pipeline

    obs = Observability(enabled=True)
    run_pipeline(apps=["gtc"], scales={"gtc": [8]}, cache_dir=str(tmp_path),
                 obs=obs, argv=["test"], options=ExecOptions(bench_dir=None))
    text = render_registry(obs.metrics)
    snap = obs.metrics.to_dict()
    assert parse_prometheus(text) == prometheus_projection(snap)
    assert "hfast_pipeline_bytes_total" in text
    assert "hfast_msg_size_bytes_gtc_count" in text


def test_metrics_server_serves_and_404s():
    reg = sample_registry()
    server = MetricsServer(lambda: render_registry(reg), port=0).start()
    try:
        assert server.port and server.url.endswith("/metrics")
        with urllib.request.urlopen(server.url, timeout=5) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == CONTENT_TYPE
            body = resp.read().decode("utf-8")
        assert parse_prometheus(body) == prometheus_projection(reg.to_dict())

        # Scrapes reflect the live registry, not a start-time snapshot.
        reg.counter("pipeline.apps_analyzed").inc(10)
        with urllib.request.urlopen(server.url, timeout=5) as resp:
            assert "hfast_pipeline_apps_analyzed 14" in resp.read().decode("utf-8")

        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"http://127.0.0.1:{server.port}/nope", timeout=5)
        assert exc.value.code == 404
    finally:
        server.stop()
