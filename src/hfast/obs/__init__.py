"""Observability layer: span tracing, metrics, profiling hooks, reports.

Quick start::

    from hfast import obs

    o = obs.Observability.to_jsonl("trace.jsonl")
    obs.configure(o)

    with obs.obs_span("my_stage", app="cactus"):
        ...

    o.metrics.histogram("msg_size_bytes").observe(4096)
    report = obs.build_report(o.events)

Everything is a no-op when the ambient instance is disabled (the default),
so library code can instrument unconditionally.
"""

from hfast.obs.analytics import (
    SpanNode,
    TraceError,
    TraceTree,
    attribution,
    cell_critical_paths,
    critical_path,
    diff_traces,
    load_events,
    render_gantt,
    stage_rollup,
    summarize,
)
from hfast.obs.anomaly import AnomalyDetector
from hfast.obs.flame import folded_stacks, speedscope_doc
from hfast.obs.live import LiveView
from hfast.obs.manifest import build_manifest, git_sha
from hfast.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log2_bucket,
)
from hfast.obs.profile import (
    Observability,
    configure,
    get_obs,
    obs_span,
    profiled,
    using,
)
from hfast.obs.prom import (
    MetricsServer,
    parse_prometheus,
    prometheus_projection,
    render_prometheus,
    render_registry,
)
from hfast.obs.report import build_report, render_markdown, write_report
from hfast.obs.stream import EventBus, StreamForwardSink
from hfast.obs.trace import (
    JsonlSink,
    ListSink,
    NullSink,
    SpanTracer,
    TeeSink,
    peak_rss_kb,
    read_events,
)

__all__ = [
    "AnomalyDetector",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "LiveView",
    "MetricsRegistry",
    "MetricsServer",
    "NullSink",
    "Observability",
    "SpanNode",
    "SpanTracer",
    "StreamForwardSink",
    "TeeSink",
    "TraceError",
    "TraceTree",
    "attribution",
    "build_manifest",
    "build_report",
    "cell_critical_paths",
    "configure",
    "critical_path",
    "diff_traces",
    "folded_stacks",
    "get_obs",
    "git_sha",
    "load_events",
    "log2_bucket",
    "obs_span",
    "parse_prometheus",
    "peak_rss_kb",
    "profiled",
    "prometheus_projection",
    "read_events",
    "render_gantt",
    "render_markdown",
    "render_prometheus",
    "render_registry",
    "speedscope_doc",
    "stage_rollup",
    "summarize",
    "using",
    "write_report",
]
