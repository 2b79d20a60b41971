"""``--live`` status view: render the event bus as a terminal dashboard.

Subscribes to the pipeline's :class:`~hfast.obs.stream.EventBus` and
keeps a per-cell state machine (queued → running → retry* → done/failed)
plus run-level counters (steals, retries, workers lost) and a
cost-model ETA. On a TTY the view repaints in place with ANSI escapes;
when the output stream is not a TTY (CI, piped logs) it degrades to
periodic single-line summaries so the run stays observable without
terminal control. Either way, consuming events never perturbs the run:
the bus swallows subscriber exceptions, and the view only reads event
payloads.

The view is wall-clock UI, deliberately outside the determinism
contract — nothing it computes feeds back into artifacts.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, TextIO

from hfast.obs.logs import get_logger

_STATE_ORDER = ("queued", "running", "retry", "done", "failed")
_GLYPH = {"queued": ".", "running": ">", "retry": "~", "done": "+", "failed": "!"}


class LiveView:
    """Event-bus subscriber rendering live run status.

    Call :meth:`start` after subscribing (``bus.subscribe(view.handle)``),
    :meth:`stop` in a ``finally`` — stop always emits a final summary
    line in non-TTY mode so logs record how the run ended.
    """

    def __init__(
        self,
        out: TextIO | None = None,
        refresh: float = 0.5,
        log_interval: float = 5.0,
        detector: Any = None,
        force_tty: bool | None = None,
    ):
        self.out = out if out is not None else sys.stderr
        self.refresh = refresh
        self.log_interval = log_interval
        self.detector = detector
        self.is_tty = force_tty if force_tty is not None else bool(
            getattr(self.out, "isatty", lambda: False)()
        )

        self._lock = threading.Lock()
        self._cells: dict[str, dict[str, Any]] = {}
        self._order: list[str] = []
        self.run_id: str | None = None
        self.scheduler: str | None = None
        self.workers: int | None = None
        self.counters = {"steals": 0, "retries": 0, "workers_lost": 0, "events": 0}
        self.stragglers: dict[str, dict[str, Any]] = {}
        self.anomalies: list[dict[str, Any]] = []
        self._started = time.monotonic()
        self._last_paint = 0.0
        self._painted_lines = 0
        self._stop = threading.Event()
        self._ticker: threading.Thread | None = None
        self._done = False

    # -- event intake -------------------------------------------------------

    def handle(self, event: dict[str, Any]) -> None:
        """Bus subscriber entry point; safe from any thread."""
        kind = event.get("event")
        with self._lock:
            self.counters["events"] += 1
            if kind == "run_start":
                self.run_id = event.get("run_id")
                self.scheduler = event.get("scheduler")
                self.workers = event.get("workers")
                for c in event.get("cells", []):
                    key = c.get("cell")
                    if key and key not in self._cells:
                        self._order.append(key)
                        self._cells[key] = {
                            "state": "queued",
                            "app": c.get("app"),
                            "nranks": c.get("nranks"),
                            "est": c.get("est"),
                            "worker": None,
                            "attempts": 0,
                            "started": None,
                            "wall_s": None,
                        }
            elif kind == "cell_state":
                self._on_cell_state(event)
            elif kind == "anomaly":
                self.anomalies.append(event)
                if event.get("kind") == "straggler":
                    self.stragglers[event.get("cell", "?")] = event
            elif kind == "worker_lost":
                self.counters["workers_lost"] += 1
            elif kind == "run_end":
                self._done = True
        self._maybe_paint()

    def _on_cell_state(self, event: dict[str, Any]) -> None:
        key = event.get("cell")
        if key is None:
            return
        st = self._cells.get(key)
        if st is None:
            self._order.append(key)
            st = self._cells[key] = {
                "state": "queued", "app": None, "nranks": None, "est": None,
                "worker": None, "attempts": 0, "started": None, "wall_s": None,
            }
        state = event.get("state")
        if state == "running":
            st["state"] = "running"
            st["worker"] = event.get("worker")
            st["attempts"] = max(st["attempts"], event.get("attempt", 1))
            st["started"] = time.monotonic()
            if event.get("stolen"):
                self.counters["steals"] += 1
        elif state == "retry":
            st["state"] = "retry"
            st["attempts"] = max(st["attempts"], event.get("attempt", 1))
            self.counters["retries"] += 1
        elif state in ("done", "failed"):
            st["state"] = state
            st["wall_s"] = event.get("wall_s")
            if event.get("attempt"):
                st["attempts"] = max(st["attempts"], event["attempt"])

    # -- derived state ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of the view state (for tests and renderers)."""
        with self._lock:
            counts = {s: 0 for s in _STATE_ORDER}
            for st in self._cells.values():
                counts[st["state"]] += 1
            return {
                "run_id": self.run_id,
                "scheduler": self.scheduler,
                "workers": self.workers,
                "cells": {k: dict(v) for k, v in self._cells.items()},
                "order": list(self._order),
                "counts": counts,
                "counters": dict(self.counters),
                "stragglers": dict(self.stragglers),
                "done": self._done,
                "eta_s": self._eta(),
            }

    def _eta(self) -> float | None:
        """Remaining-seconds estimate from cost-model weights + observed rate."""
        done_est = rem_est = 0.0
        have_est = False
        for st in self._cells.values():
            est = st.get("est")
            if est is None:
                continue
            have_est = True
            if st["state"] in ("done", "failed"):
                done_est += est
            else:
                rem_est += est
        if not have_est or done_est <= 0:
            return None
        elapsed = time.monotonic() - self._started
        return elapsed * rem_est / done_est

    def _check_stragglers_locked(self) -> None:
        if self.detector is None:
            return
        now = time.monotonic()
        for key, st in self._cells.items():
            if st["state"] != "running" or st["started"] is None or key in self.stragglers:
                continue
            if st.get("app") is None or st.get("nranks") is None:
                continue
            flag = self.detector.check_running(st["app"], st["nranks"], now - st["started"])
            if flag is not None:
                self.stragglers[key] = flag

    # -- rendering ----------------------------------------------------------

    def render_lines(self, snap: dict[str, Any] | None = None) -> list[str]:
        """Full multi-line dashboard (the TTY repaint body)."""
        s = snap or self.snapshot()
        counts = s["counts"]
        head = (
            f"hfast live · run {s['run_id'] or '-'} · {s['scheduler'] or 'serial'}"
            + (f" x{s['workers']}" if s["workers"] else "")
        )
        bar = " ".join(f"{_GLYPH[k]}{counts[k]}" for k in _STATE_ORDER)
        ctr = s["counters"]
        tail = f"steals={ctr['steals']} retries={ctr['retries']} lost={ctr['workers_lost']}"
        eta = s["eta_s"]
        if eta is not None:
            tail += f" eta={eta:.0f}s"
        lines = [head, f"  {bar}   {tail}"]
        for key in s["order"]:
            st = s["cells"][key]
            mark = _GLYPH[st["state"]]
            extra = ""
            if st["state"] == "running" and st["worker"] is not None:
                extra = f" w{st['worker']}"
            if st["attempts"] > 1:
                extra += f" a{st['attempts']}"
            if st["wall_s"] is not None:
                extra += f" {st['wall_s']:.2f}s"
            if key in s["stragglers"]:
                extra += " STRAGGLER"
            lines.append(f"  {mark} {key}{extra}")
        return lines

    def summary_line(self, snap: dict[str, Any] | None = None) -> str:
        """One-line digest (the non-TTY log format)."""
        s = snap or self.snapshot()
        c = s["counts"]
        ctr = s["counters"]
        parts = [
            f"live: {c['done']}+{c['failed']}/{len(s['order'])} done",
            f"running={c['running']}",
            f"retries={ctr['retries']}",
            f"steals={ctr['steals']}",
        ]
        if s["eta_s"] is not None:
            parts.append(f"eta={s['eta_s']:.0f}s")
        if s["stragglers"]:
            parts.append("stragglers=" + ",".join(sorted(s["stragglers"])))
        return " ".join(parts)

    def _maybe_paint(self) -> None:
        now = time.monotonic()
        interval = self.refresh if self.is_tty else self.log_interval
        if now - self._last_paint < interval and not self._done:
            return
        self._paint(now)

    def _paint(self, now: float) -> None:
        self._last_paint = now
        with self._lock:
            self._check_stragglers_locked()
        # Mirror the digest into the ambient structured log (no-op unless
        # configured) so live progress is joinable against the trace.
        log = get_logger(component="live")
        if log.enabled:
            snap = self.snapshot()
            log.debug(
                "live_summary",
                run_id=snap["run_id"],
                counts=snap["counts"],
                counters=snap["counters"],
                stragglers=sorted(snap["stragglers"]),
                done=snap["done"],
            )
        try:
            if self.is_tty:
                lines = self.render_lines()
                if self._painted_lines:
                    self.out.write(f"\x1b[{self._painted_lines}A")
                for line in lines:
                    self.out.write("\x1b[2K" + line + "\n")
                self._painted_lines = len(lines)
            else:
                self.out.write(self.summary_line() + "\n")
            self.out.flush()
        except (OSError, ValueError):
            pass  # a closed/broken output stream must never kill the run

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "LiveView":
        """Begin periodic repainting on a daemon thread."""
        self._ticker = threading.Thread(
            target=self._tick, name="hfast-live-view", daemon=True
        )
        self._ticker.start()
        return self

    def _tick(self) -> None:
        interval = self.refresh if self.is_tty else self.log_interval
        while not self._stop.wait(interval):
            self._paint(time.monotonic())

    def stop(self) -> None:
        """Stop the ticker and emit the final state unconditionally."""
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
            self._ticker = None
        self._paint(time.monotonic())
