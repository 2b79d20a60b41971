"""Ambient observability context and stage-profiling hooks.

An :class:`Observability` object bundles a span tracer and a metrics
registry. A process-wide ambient instance (disabled by default) lets hot
paths be instrumented unconditionally — ``@profiled("stage")`` resolves
the ambient instance at call time and collapses to near-zero work when
observability is off.

The ambient lookup is two-level: :func:`configure` installs a
process-wide default (the CLI's single-run instance), while
:func:`using` installs a *thread-local* override. Concurrent pipelines
in one process — the ``hfast serve`` daemon runs one per in-flight job —
therefore never see each other's tracer or metrics: each job thread's
``using(obs)`` scope is invisible to its neighbours.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from hfast.obs.metrics import MetricsRegistry
from hfast.obs.trace import ListSink, NullSink, SpanTracer, TeeSink


class Observability:
    """Tracer + metrics bundle handed through the pipeline."""

    def __init__(
        self,
        enabled: bool = True,
        trace_sink: Any = None,
        keep_events: bool = True,
    ):
        self.enabled = enabled
        if not enabled:
            self.tracer = SpanTracer(sink=NullSink(), enabled=False)
            self.metrics = MetricsRegistry(enabled=False)
            self.event_buffer: ListSink | None = None
            return
        self.event_buffer = ListSink() if keep_events else None
        if trace_sink is None:
            sink: Any = self.event_buffer or NullSink()
        elif self.event_buffer is not None:
            sink = TeeSink(trace_sink, self.event_buffer)
        else:
            sink = trace_sink
        self.tracer = SpanTracer(sink=sink, enabled=True)
        self.metrics = MetricsRegistry(enabled=True)

    @property
    def events(self) -> list[dict[str, Any]]:
        return self.event_buffer.events if self.event_buffer else []

    def close(self) -> None:
        self.tracer.close()

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)


_ambient = Observability.disabled()
_local = threading.local()


def configure(obs: Observability) -> Observability:
    """Install obs as the process-wide ambient default; returns it."""
    global _ambient
    _ambient = obs
    return obs


def get_obs() -> Observability:
    """Resolve the ambient instance: thread-local override, else default."""
    override = getattr(_local, "obs", None)
    return override if override is not None else _ambient


@contextmanager
def using(obs: Observability) -> Iterator[Observability]:
    """Temporarily install obs as this thread's ambient instance.

    The override is thread-local, so concurrent jobs (the serve daemon
    runs one pipeline per in-flight job, on executor threads) scope
    their observability independently; nested ``using`` blocks restore
    the enclosing override on exit.
    """
    prev = getattr(_local, "obs", None)
    _local.obs = obs
    try:
        yield obs
    finally:
        _local.obs = prev


def profiled(stage: str, **attrs: Any) -> Callable:
    """Decorator: trace a pipeline stage and count its invocations.

    Resolves the ambient instance per call, so enabling observability after
    import works and disabled mode costs one attribute check.
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            obs = get_obs()
            if not obs.enabled:
                return fn(*args, **kwargs)
            obs.metrics.counter(f"stage.{stage}.calls").inc()
            with obs.tracer.span(stage, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return deco
