"""Live telemetry fan-out: an event bus and a bounded ring of its events.

The deterministic observability pipeline buffers every cell's events
with its result and merges them in cell order *after* the cell
completes. What a watcher needs while the run executes is smaller, and
the parent process publishes it itself, as it happens, on an
:class:`EventBus`. A pipeline run's bus carries ``run_start`` (the cell
matrix with cost estimates), ``cell_state`` transitions
(running/retry/done/failed, with worker, attempt and stolen flags),
``worker_lost``, ``anomaly`` and ``run_end``; its subscriber is the
``--live`` status view. The serve daemon's bus carries its own job
lifecycle and heartbeat events into a :class:`RingLog` behind
``GET /v1/events``.

Workers send nothing live: a child's events reach the parent only with
its result. Only a caller that builds a bus imports this module.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


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
