"""Live telemetry streaming: event bus + cross-process trace forwarding.

The deterministic observability pipeline buffers every worker event and
merges it in cell order *after* a cell completes — perfect for
reproducible artifacts, useless for watching a 4K-rank cell grind or a
worker hang. This module adds the missing live path as a strict
side-channel:

- :class:`EventBus` — parent-side fan-out of telemetry events to any
  number of subscribers (the ``--live`` status view, tests, future
  exporters). Subscriber exceptions are swallowed and counted; a broken
  consumer can never perturb the run.
- **Worker channels** — a process-local registration
  (:func:`set_worker_channel`) that cell execution picks up to forward
  events *as they happen*: over the work-stealing scheduler's existing
  duplex pipe (``("ev", event)`` messages), or synchronously for serial
  runs.
- :class:`StreamForwardSink` — a trace sink that sends *annotated
  copies* of each event down the channel, stamped with the propagated
  trace context (``run_id``, ``cell``, ``worker``, ``attempt``). The
  buffered originals are never touched, so the merged JSONL trace stays
  byte-identical with and without live streaming.

Nothing here is on the hot path when live mode is off: workers only
forward when the cell payload carries ``live=True``, and the bus simply
does not exist.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

#: Keys a :class:`StreamForwardSink` stamps onto forwarded event copies.
CONTEXT_KEYS = ("run_id", "cell", "worker", "attempt")


class EventBus:
    """Thread-safe publish/subscribe fan-out for live telemetry events.

    Publishers may be the pipeline's main thread or the scheduler's event
    loop; subscribers must therefore be internally thread-safe. A
    subscriber that raises is skipped for that event (``dropped`` counts
    the failures) — live consumers are best-effort by contract.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callable[[dict[str, Any]], None]] = []
        self._lock = threading.Lock()
        self.published = 0
        self.dropped = 0

    def subscribe(self, fn: Callable[[dict[str, Any]], None]) -> None:
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[dict[str, Any]], None]) -> None:
        with self._lock:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    def publish(self, event: dict[str, Any]) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
            self.published += 1
        for fn in subscribers:
            try:
                fn(event)
            except Exception:
                self.dropped += 1


class RingLog:
    """Bounded, thread-safe ring of the most recent bus events.

    Subscribed to an :class:`EventBus`, it gives long-running consumers
    (the serve daemon's ``/v1/events`` ops endpoint) a cheap "what just
    happened" window without unbounded growth: the newest ``capacity``
    events win, and :meth:`tail` snapshots them oldest-first.

    Every event gets a monotonically increasing sequence number (``seen``
    after it is recorded), which :meth:`since` exposes for cursor-based
    pagination: a tailing client passes back the last ``seq`` it saw and
    receives only newer events, plus how many fell out of the ring before
    it caught up.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = max(1, int(capacity))
        self._events: list[tuple[int, dict[str, Any]]] = []
        self._lock = threading.Lock()
        self.seen = 0

    def handle(self, event: dict[str, Any]) -> None:
        with self._lock:
            self.seen += 1
            self._events.append((self.seen, event))
            if len(self._events) > self.capacity:
                del self._events[: len(self._events) - self.capacity]

    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        with self._lock:
            events = [ev for _seq, ev in self._events]
        return events if n is None else events[-max(0, int(n)):]

    def since(self, cursor: int) -> tuple[list[dict[str, Any]], int, int]:
        """Events newer than ``cursor``; returns (events, next_cursor, missed).

        Each returned event dict carries its ``seq``. ``next_cursor`` is
        the value to pass back on the next poll (unchanged when nothing
        new arrived); ``missed`` counts events that rotated out of the
        ring before this poll — nonzero means the client fell behind the
        producer and lost that many events.
        """
        cursor = max(0, int(cursor))
        with self._lock:
            newer = [(seq, ev) for seq, ev in self._events if seq > cursor]
            seen = self.seen
        oldest_retained = newer[0][0] if newer else seen + 1
        missed = max(0, min(oldest_retained - cursor - 1, seen - cursor))
        events = [{"seq": seq, **ev} for seq, ev in newer]
        return events, (events[-1]["seq"] if events else max(cursor, seen)), missed


class StreamForwardSink:
    """Trace sink that forwards annotated event copies to a live channel.

    Emitting never raises: a torn pipe or full queue silently drops the
    live copy (the buffered original still reaches the merged trace).
    """

    def __init__(self, send: Callable[[dict[str, Any]], None], context: dict[str, Any]):
        self._send = send
        self.context = {k: v for k, v in context.items() if v is not None}

    def emit(self, event: dict[str, Any]) -> None:
        ev = dict(event)
        ev.update(self.context)
        try:
            self._send(ev)
        except Exception:
            pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Process-local worker channel

_channel: Callable[[dict[str, Any]], None] | None = None
_worker_id: int | str | None = None


def set_worker_channel(
    send: Callable[[dict[str, Any]], None], worker_id: int | str | None = None
) -> None:
    """Install this process's live-event channel (scheduler worker or serial run)."""
    global _channel, _worker_id
    _channel = send
    _worker_id = worker_id


def clear_worker_channel() -> None:
    global _channel, _worker_id
    _channel = None
    _worker_id = None


def worker_channel() -> Callable[[dict[str, Any]], None] | None:
    return _channel


def worker_id() -> int | str | None:
    return _worker_id


def forward_sink_for(payload: dict[str, Any]) -> StreamForwardSink | None:
    """Build the live forwarder for one cell payload, if streaming is on.

    Returns ``None`` unless the payload asked for live streaming *and*
    this process has a registered channel — the common (non-live) case
    costs two dict lookups.
    """
    if not payload.get("live"):
        return None
    send = worker_channel()
    if send is None:
        return None
    ctx = payload.get("ctx") or {}
    return StreamForwardSink(
        send,
        {
            "run_id": ctx.get("run_id"),
            "cell": ctx.get("cell"),
            "worker": worker_id(),
            "attempt": payload.get("attempt", 1),
        },
    )
