"""Structured span tracing.

A :class:`SpanTracer` hands out nested spans via a context manager.
Each finished span is emitted as one structured JSONL event (stage
name, wall time, peak RSS, nesting ids, custom attributes) to a
pluggable sink. When the tracer is disabled, ``span()`` returns a shared
no-op context manager, so instrumented hot paths cost almost nothing.

:class:`JsonlSink` appends to one file per run and never rotates it;
size-based rotation belongs to the structured log
(:class:`hfast.obs.logs.RotatingJsonlWriter`), which outlives a run.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

try:
    import resource

    def peak_rss_kb() -> int:
        """Peak resident set size of this process, in KiB."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return peak // 1024 if sys.platform == "darwin" else peak

except ImportError:  # pragma: no cover - non-POSIX fallback

    def peak_rss_kb() -> int:
        return 0


class NullSink:
    """Discards events; the disabled-mode sink."""

    def emit(self, event: dict[str, Any]) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    """Collects events in memory; handy for tests and report generation."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one JSON object per line to a file or stream.

    Writes are buffered: emitting leaves the bytes in the stream's
    buffer, and ``flush()``/``close()`` push them out. A per-event flush
    costs a syscall per span — measurable on traces with thousands of
    events — and the only consumer that needs bytes promptly (the live
    streaming path) calls ``flush()`` itself. A trace file is never
    rotated: it grows for the one run that writes it.
    """

    def __init__(self, target: str | os.PathLike | io.TextIOBase):
        if isinstance(target, (str, os.PathLike)):
            path = os.fspath(target)
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh: io.TextIOBase = open(path, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def emit(self, event: dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        # Flush even for streams we don't own: close() ends the sink's
        # lifetime, and no buffered event may be lost either way.
        try:
            self._fh.flush()
        except ValueError:  # already-closed underlying stream
            pass
        if self._owns:
            self._fh.close()


class TeeSink:
    """Fans one event out to several sinks."""

    def __init__(self, *sinks: Any) -> None:
        self.sinks = list(sinks)

    def emit(self, event: dict[str, Any]) -> None:
        for s in self.sinks:
            s.emit(event)

    def flush(self) -> None:
        for s in self.sinks:
            s.flush()

    def close(self) -> None:
        for s in self.sinks:
            s.close()


class _NullSpan:
    """Shared no-op span for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "depth", "_t0", "wall_s")

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        attrs: dict[str, Any],
        span_id: int,
        parent_id: int | None,
        depth: int,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self._t0 = 0.0
        self.wall_s = 0.0

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class SpanTracer:
    """Emits structured span events to a sink, tracking nesting."""

    def __init__(self, sink: Any = None, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.sink = sink if sink is not None else (ListSink() if enabled else NullSink())
        self.enabled = enabled
        self.clock = clock
        self._stack: list[Span] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Any]:
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            tracer=self,
            name=name,
            attrs=dict(attrs),
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
        )
        self._next_id += 1
        self._stack.append(sp)
        sp._t0 = self.clock()
        error: str | None = None
        try:
            yield sp
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            sp.wall_s = self.clock() - sp._t0
            self._stack.pop()
            event: dict[str, Any] = {
                "event": "span",
                "name": sp.name,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
                "depth": sp.depth,
                "wall_s": sp.wall_s,
                "peak_rss_kb": peak_rss_kb(),
                "attrs": sp.attrs,
            }
            if error is not None:
                event["error"] = error
            self.sink.emit(event)

    def reserve_ids(self, n: int) -> int:
        """Claim a block of n span ids; returns the first of them."""
        base = self._next_id
        self._next_id += n
        return base

    def graft(
        self,
        events: list[dict[str, Any]],
        parent_id: int | None,
        depth: int,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Re-emit another tracer's ``events`` as a subtree of ``parent_id``.

        This is how a child's buffered trace (a cell run in a worker, a
        served job) joins its parent's: the child's span ids, numbered
        from 1, move onto a fresh block of this tracer's ids. Its root
        spans hang off ``parent_id`` at ``depth``, with ``attrs`` added,
        and the spans under them move down by ``depth`` too. Other
        events (an ``app_summary``) point at ``parent_id`` unless they
        name a parent. An empty batch reserves no ids.
        """
        if not self.enabled or not events:
            return
        max_local = max((e["span_id"] for e in events if e.get("event") == "span"), default=0)
        # Claim max_local + 1 ids: remapped ids land on base+1..base+max_local,
        # keeping the tracer's next fresh id clear of the block.
        base = self.reserve_ids(max_local + 1)
        for ev in events:
            ev = dict(ev)
            kind = ev.pop("event")
            if kind == "span":
                ev["span_id"] += base
                if ev.get("parent_id") is None:
                    ev["parent_id"] = parent_id
                    if attrs:
                        ev["attrs"] = {**(ev.get("attrs") or {}), **attrs}
                else:
                    ev["parent_id"] += base
                ev["depth"] = ev.get("depth", 0) + depth
            else:
                ev.setdefault("parent_id", parent_id)
            self.emit_event(kind, ev)

    def emit_event(self, kind: str, payload: dict[str, Any]) -> None:
        """Emit a non-span structured event (e.g. the run manifest)."""
        if not self.enabled:
            return
        event = {"event": kind}
        event.update(payload)
        self.sink.emit(event)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


def read_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Load a JSONL trace file back into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
