"""Cost-model-driven work-stealing scheduler with fault tolerance.

The parent process owns a shared queue of (app, nranks) cells ordered by
estimated cost (largest first). Worker processes pull work over private
duplex pipes: when a worker goes idle it steals the largest remaining
cell, so a skewed matrix (paratec@4K next to cactus@8) keeps every
worker busy instead of pinning the heavy tail onto one static shard.

Fault tolerance:

- **Transient failures** — a cell whose execution raises is retried with
  exponential backoff up to ``max_retries`` times; only a cell that
  exhausts its retries is reported failed.
- **Crashed workers** — each worker is liveness-checked every poll; a
  worker that dies mid-cell (SIGKILL, OOM) has its cell re-dispatched
  and a replacement worker spawned.
- **Hung workers** — workers heartbeat over their pipe; a busy worker
  silent for ``heartbeat_timeout`` seconds is killed and treated as
  crashed.
- **Resume** — completed cells are journaled (see
  :mod:`hfast.sched.journal`); a resumed run replays them from the
  journal instead of re-executing.

Determinism: scheduling only changes *when* a cell runs, never what it
computes. Results are returned in cell-definition order, so the caller's
merge (results, spans, metrics, cache statistics) is byte-identical to a
serial run regardless of steal order, retries, or crashes.

Workers communicate over per-worker ``multiprocessing.Pipe`` pairs
rather than one shared queue: a SIGKILLed process can never wedge a
shared queue lock for the survivors, and a half-written message is
confined to the pipe of the worker that died.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from hfast.obs import stream
from hfast.obs.logs import get_logger
from hfast.obs.profile import Observability
from hfast.sched.cost import CostModel
from hfast.sched.faults import TransientFault, maybe_inject
from hfast.sched.journal import RunJournal


class SchedulerError(RuntimeError):
    """The scheduler could not run the sweep."""


@dataclass
class SchedulerConfig:
    """Knobs for the work-stealing executor."""

    workers: int = 2
    max_retries: int = 2  # retries after the first attempt
    heartbeat_timeout: float = 30.0  # busy + silent this long => presumed hung
    heartbeat_interval: float | None = None  # default: timeout / 4, capped at 1s
    retry_backoff: float = 0.05  # seconds; doubles per failed attempt
    poll_interval: float = 0.05  # parent event-loop tick

    @property
    def beat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return min(1.0, max(0.01, self.heartbeat_timeout / 4.0))


# ---------------------------------------------------------------------------
# Worker side


def _run_task(task: dict[str, Any], execute_fn: Callable, wedge: threading.Event) -> dict[str, Any]:
    """Execute one cell payload, routing injected faults appropriately."""
    t0 = time.perf_counter()
    key = f"{task['app']}_p{task['nranks']}"
    try:
        maybe_inject(key, task.get("attempt", 1), wedge=wedge)
    except TransientFault as exc:
        return {
            "app": task["app"],
            "nranks": task["nranks"],
            "index": task["index"],
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "summary": None,
            "wall_s": time.perf_counter() - t0,
            "events": [],
            "metrics": {},
            "cache": {},
        }
    return execute_fn(task)


def _worker_main(
    worker_id: int,
    conn: Any,
    execute_fn: Callable,
    beat_interval: float,
) -> None:
    """Worker loop: recv task, execute, send result; heartbeat on the side."""
    wedge = threading.Event()
    send_lock = threading.Lock()
    current: dict[str, Any] = {"index": None}

    def send(msg: tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass

    # Live telemetry rides the same duplex pipe as ("ev", event) messages.
    # Registration is unconditional; the forwarder only engages for payloads
    # that carry live=True, so non-live runs never send an "ev".
    stream.set_worker_channel(lambda ev: send(("ev", ev)), worker_id=worker_id)

    def beat() -> None:
        while not wedge.is_set():
            time.sleep(beat_interval)
            if wedge.is_set():
                return
            send(("beat", current["index"]))

    threading.Thread(target=beat, daemon=True).start()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        current["index"] = task["index"]
        send(("started", task["index"]))
        result = _run_task(task, execute_fn, wedge)
        current["index"] = None
        send(("result", task["index"], result))


# ---------------------------------------------------------------------------
# Parent side


class _WorkerSlot:
    __slots__ = (
        "worker_id", "proc", "conn", "busy", "last_beat", "tasks_done", "had_task",
    )

    def __init__(self, worker_id: int, proc: Any, conn: Any):
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.busy: tuple[int, Any] | None = None  # (cell index, cell)
        self.last_beat = time.monotonic()
        self.tasks_done = 0
        self.had_task = False


def _death_result(cell: Any, attempt: int, reason: str) -> dict[str, Any]:
    return {
        "app": cell.app,
        "nranks": cell.nranks,
        "index": cell.index,
        "ok": False,
        "error": f"WorkerLost: {reason} (attempt {attempt})",
        "summary": None,
        "wall_s": 0.0,
        "attempts": attempt,
        "events": [],
        "metrics": {},
        "cache": {},
    }


def run_stealing(
    cells: Sequence[Any],
    make_payload: Callable[[Any, int], dict[str, Any]],
    execute_fn: Callable[[dict[str, Any]], dict[str, Any]],
    config: SchedulerConfig,
    cost_model: CostModel | None = None,
    obs: Observability | None = None,
    journal: RunJournal | None = None,
    on_event: Callable[[dict[str, Any]], None] | None = None,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Run cells under the work-stealing scheduler.

    Returns ``(results, stats)`` where ``results`` holds one raw worker
    result per cell in cell-definition order (journal replays included)
    and ``stats`` is the scheduler bookkeeping destined for the run
    manifest. Every result carries ``attempts``; failed cells have
    ``ok=False`` after exhausting their retries.

    ``on_event`` receives live telemetry as it happens: scheduling
    transitions (``cell_state``/``worker_lost``/``heartbeat``) plus
    every ``("ev", ...)`` message a worker forwards over its pipe. It is
    a pure side-channel — exceptions are swallowed, and nothing it sees
    feeds back into results or stats.
    """
    cost_model = cost_model or CostModel()
    # Ambient structured log: a no-op unless the process configured one
    # (hfast analyze --log-out, the serve daemon); correlation ids let a
    # reader join these records against the trace.
    log = get_logger(component="sched", run_id=journal.run_id if journal is not None else None)

    def emit_live(event: dict[str, Any]) -> None:
        if on_event is not None:
            try:
                on_event(event)
            except Exception:
                pass
    stats: dict[str, Any] = {
        "backend": "stealing",
        "workers": config.workers,
        "max_retries": config.max_retries,
        "heartbeat_timeout": config.heartbeat_timeout,
        "tasks_dispatched": 0,
        "steals": 0,
        "retries": 0,
        "redispatches": 0,
        "workers_spawned": 0,
        "workers_lost": 0,
        "max_queue_depth": 0,
        "cells_from_journal": 0,
    }
    completed: dict[int, dict[str, Any]] = {}
    attempts: dict[int, int] = {}
    # Events from failed attempts, kept so retries graft as sibling spans
    # under the cell span instead of vanishing (or duplicating roots).
    prior_attempts: dict[int, list[dict[str, Any]]] = {}

    if journal is not None:
        for cell in cells:
            entry = journal.completed.get(cell.index)
            if entry is not None:
                replay = dict(entry["result"])
                replay["attempts"] = entry["attempts"]
                replay["from_journal"] = True
                completed[cell.index] = replay
                stats["cells_from_journal"] += 1

    pending: list[tuple[float, int, Any]] = [
        (-cost_model.estimate(c.app, c.nranks), c.index, c)
        for c in cells
        if c.index not in completed
    ]
    heapq.heapify(pending)
    delayed: list[tuple[float, float, int, Any]] = []  # (due, -cost, index, cell)
    stats["max_queue_depth"] = len(pending)

    ctx = mp.get_context()
    slots: dict[int, _WorkerSlot] = {}
    next_worker_id = 0

    def spawn_worker() -> _WorkerSlot:
        nonlocal next_worker_id
        worker_id = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, child_conn, execute_fn, config.beat_interval),
            daemon=True,
            name=f"hfast-sched-{worker_id}",
        )
        proc.start()
        child_conn.close()
        slot = _WorkerSlot(worker_id, proc, parent_conn)
        slots[worker_id] = slot
        stats["workers_spawned"] += 1
        return slot

    def assign(slot: _WorkerSlot) -> bool:
        """Hand the largest pending cell to an idle worker."""
        neg_cost, index, cell = heapq.heappop(pending)
        attempts[index] = attempts.get(index, 0) + 1
        task = make_payload(cell, attempts[index])
        task["attempt"] = attempts[index]
        try:
            slot.conn.send(task)
        except (BrokenPipeError, OSError):
            heapq.heappush(pending, (neg_cost, index, cell))
            attempts[index] -= 1
            return False
        stolen = slot.had_task
        if stolen:
            stats["steals"] += 1
        slot.had_task = True
        slot.busy = (index, cell)
        slot.last_beat = time.monotonic()
        stats["tasks_dispatched"] += 1
        emit_live(
            {
                "event": "cell_state",
                "state": "running",
                "cell": f"{cell.app}_p{cell.nranks}",
                "worker": slot.worker_id,
                "attempt": attempts[index],
                "stolen": stolen,
            }
        )
        return True

    def retire(slot: _WorkerSlot) -> None:
        slots.pop(slot.worker_id, None)
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join(timeout=2.0)
        if obs is not None and obs.enabled:
            obs.tracer.emit_event(
                "sched_worker",
                {"worker": slot.worker_id, "tasks_done": slot.tasks_done},
            )

    def handle_finished(slot: _WorkerSlot, index: int, result: dict[str, Any]) -> None:
        cell = slot.busy[1] if slot.busy else None
        slot.busy = None
        slot.last_beat = time.monotonic()
        n_attempts = attempts.get(index, 1)
        key = f"{result['app']}_p{result['nranks']}"
        if not result.get("ok") and n_attempts <= config.max_retries and cell is not None:
            stats["retries"] += 1
            prior_attempts.setdefault(index, []).append(
                {
                    "attempt": n_attempts,
                    "events": result.get("events") or [],
                    "error": result.get("error"),
                }
            )
            due = time.monotonic() + config.retry_backoff * (2 ** (n_attempts - 1))
            heapq.heappush(delayed, (due, -cost_model.estimate(cell.app, cell.nranks), index, cell))
            log.warning(
                "cell_retry",
                cell=key,
                worker=slot.worker_id,
                attempt=n_attempts,
                error=result.get("error"),
            )
            emit_live(
                {
                    "event": "cell_state",
                    "state": "retry",
                    "cell": key,
                    "worker": slot.worker_id,
                    "attempt": n_attempts,
                    "error": result.get("error"),
                }
            )
        else:
            result = dict(result)
            result["attempts"] = n_attempts
            result["worker"] = slot.worker_id
            if index in prior_attempts:
                result["prior_attempts"] = prior_attempts.pop(index)
            completed[index] = result
            slot.tasks_done += 1
            if result.get("ok") and journal is not None:
                journal.record_done(index, key, n_attempts, result)
            emit_live(
                {
                    "event": "cell_state",
                    "state": "done" if result.get("ok") else "failed",
                    "cell": key,
                    "worker": slot.worker_id,
                    "attempt": n_attempts,
                    "wall_s": result.get("wall_s"),
                }
            )
        if obs is not None and obs.enabled:
            obs.metrics.counter("sched.tasks_finished").inc()
            obs.tracer.emit_event(
                "sched_task",
                {
                    "cell": f"{result['app']}_p{result['nranks']}",
                    "worker": slot.worker_id,
                    "attempt": n_attempts,
                    "ok": bool(result.get("ok")),
                    "wall_s": result.get("wall_s", 0.0),
                },
            )

    def handle_lost_worker(slot: _WorkerSlot, reason: str) -> None:
        stats["workers_lost"] += 1
        log.error(
            "worker_lost",
            worker=slot.worker_id,
            cell=f"{slot.busy[1].app}_p{slot.busy[1].nranks}" if slot.busy else None,
            reason=reason,
        )
        emit_live(
            {
                "event": "worker_lost",
                "worker": slot.worker_id,
                "cell": f"{slot.busy[1].app}_p{slot.busy[1].nranks}" if slot.busy else None,
                "reason": reason,
            }
        )
        if slot.busy is not None:
            index, cell = slot.busy
            slot.busy = None
            stats["redispatches"] += 1
            prior_attempts.setdefault(index, []).append(
                {"attempt": attempts.get(index, 1), "events": [], "error": reason}
            )
            log.warning(
                "cell_redispatch",
                cell=f"{cell.app}_p{cell.nranks}",
                attempt=attempts.get(index, 1),
                reason=reason,
            )
            if attempts.get(index, 1) <= config.max_retries:
                # Crash re-dispatch goes straight back onto the queue: the
                # failure was the worker's, not the cell's.
                heapq.heappush(
                    pending, (-cost_model.estimate(cell.app, cell.nranks), index, cell)
                )
            else:
                dead = _death_result(cell, attempts.get(index, 1), reason)
                if index in prior_attempts:
                    dead["prior_attempts"] = prior_attempts.pop(index)
                completed[index] = dead
        retire(slot)

    try:
        while len(completed) < len(cells):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, neg_cost, index, cell = heapq.heappop(delayed)
                heapq.heappush(pending, (neg_cost, index, cell))
            stats["max_queue_depth"] = max(stats["max_queue_depth"], len(pending) + len(delayed))

            # Keep the pool sized to the remaining work; this both spawns
            # the initial workers and replaces lost ones.
            outstanding = len(cells) - len(completed)
            while len(slots) < min(config.workers, outstanding):
                spawn_worker()
            for slot in list(slots.values()):
                if slot.busy is None and pending:
                    assign(slot)

            conns = [slot.conn for slot in slots.values()]
            if conns:
                ready = mp_connection.wait(conns, timeout=config.poll_interval)
            else:
                time.sleep(config.poll_interval)
                ready = []
            for conn in ready:
                slot = next((s for s in slots.values() if s.conn is conn), None)
                if slot is None:
                    continue
                while True:
                    try:
                        if not conn.poll():
                            break
                        msg = conn.recv()
                    except (EOFError, OSError):
                        break  # liveness check below reaps the worker
                    kind = msg[0]
                    if kind == "beat":
                        slot.last_beat = time.monotonic()
                        if on_event is not None:
                            busy = slot.busy
                            emit_live(
                                {
                                    "event": "heartbeat",
                                    "worker": slot.worker_id,
                                    "cell": f"{busy[1].app}_p{busy[1].nranks}" if busy else None,
                                }
                            )
                    elif kind == "started":
                        slot.last_beat = time.monotonic()
                    elif kind == "ev":
                        emit_live(msg[1])
                    elif kind == "result":
                        handle_finished(slot, msg[1], msg[2])

            now = time.monotonic()
            for slot in list(slots.values()):
                if not slot.proc.is_alive():
                    handle_lost_worker(slot, f"worker {slot.worker_id} died")
                elif slot.busy is not None and now - slot.last_beat > config.heartbeat_timeout:
                    slot.proc.kill()
                    handle_lost_worker(
                        slot,
                        f"worker {slot.worker_id} missed heartbeats for "
                        f"{config.heartbeat_timeout:.1f}s",
                    )
    finally:
        for slot in list(slots.values()):
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for slot in list(slots.values()):
            slot.proc.join(timeout=2.0)
            retire(slot)

    if obs is not None and obs.enabled:
        for key in ("steals", "retries", "redispatches", "tasks_dispatched"):
            obs.metrics.counter(f"sched.{key}").inc(stats[key])
        obs.metrics.gauge("sched.max_queue_depth").set(stats["max_queue_depth"])

    return [completed[c.index] for c in cells], stats
