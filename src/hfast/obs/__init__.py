"""Observability layer: span tracing, metrics, profiling hooks, reports.

Quick start::

    from hfast.obs.profile import Observability, configure
    from hfast.obs.report import build_report
    from hfast.obs.trace import JsonlSink

    o = configure(Observability(trace_sink=JsonlSink("trace.jsonl")))

    with o.tracer.span("my_stage", app="cactus"):
        ...

    o.metrics.histogram("msg_size_bytes").observe(4096)
    o.close()
    report = build_report(o.events)

Everything is a no-op when the ambient instance is disabled (the default),
so library code can instrument unconditionally.

The package itself imports nothing: a run loads only the modules it
uses, so a serial analysis never pays for the HTTP exporter, the live
view or the trace analytics.
"""
