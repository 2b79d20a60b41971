"""Analysis-as-a-service daemon: ``python -m hfast serve``.

A long-running asyncio HTTP service in front of the pipeline. Clients
submit one analysis cell at a time over the full
(app, scale, seed, timing/interconnect config) space and get a
content-addressed result back:

- ``POST /v1/jobs`` — check the submission as one cell of a
  :class:`~hfast.spec.RunSpec` (:meth:`~hfast.spec.RunSpec.from_wire`:
  defaults filled, every bad field listed in the ``400``), keyed by the
  spec's key and run with every input it declares, ``overrides``
  included; identical work already running is
  deduplicated onto the in-flight job (single-flight), identical work
  already finished is answered straight from the result store, and new
  work is admitted against a bounded budget (``429`` + ``Retry-After``
  past it).
- ``POST /v1/sweeps`` — submit a design-space search as a single job:
  the daemon fans the sweep into candidate evaluations through
  :func:`hfast.dse.search.run_search` and content-addresses the Pareto
  frontier artifact under the search's key, byte-identical to a direct
  ``hfast search --out`` run of the same spec. Sweeps share the analyze
  jobs' admission ladder (dedupe, cached answers, backpressure), ledger
  recovery, and journal-backed resume.
- ``GET /v1/jobs/<id>`` — job status, scheduler stats, error detail.
- ``GET /v1/results/<key>`` — the stored artifact, byte-for-byte the
  same JSON a direct ``hfast analyze`` run would produce for that spec.
- ``GET /healthz`` / ``GET /metrics`` / ``GET /v1/events`` — ops
  surface: liveness + drain state, Prometheus exposition over the
  service and cumulative pipeline registries, and a ring of recent
  telemetry events.

Jobs execute on a small thread pool (``max_running`` wide) by calling
:func:`hfast.pipeline.run_pipeline` — the same entry point the CLI uses,
so served results inherit every determinism and caching guarantee the
pipeline already has. Each job runs under its own
:class:`~hfast.obs.profile.Observability` (installed thread-locally via
:func:`~hfast.obs.profile.using`); its metrics fold into a cumulative
registry and, when ``--trace-out`` is set, its spans graft into the
daemon's unified trace under a ``serve_job`` root.

The daemon is crash-tolerant: every job is journaled in a ledger and
(with the default stealing scheduler) in the run journal keyed by the
job's pinned ``run_id``. On restart, unfinished ledger entries are
re-admitted, resuming from their journal when one survived; an entry
whose spec no longer validates — one an older daemon wrote naming the
removed ``backend`` or ``matcher`` fields, say — is marked failed as an
unrecoverable spec. ``SIGTERM``
triggers a graceful drain: new submissions get ``503`` while in-flight
jobs run to completion and their results become servable before exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from hfast.obs.metrics import MetricsRegistry
from hfast.obs.profile import Observability, using
from hfast.obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from hfast.obs.prom import render_registries
from hfast.obs.stream import EventBus, RingLog
from hfast.obs.trace import JsonlSink
from hfast.pipeline import run_pipeline
from hfast.sched.journal import JournalError, has_journal, new_run_id
from hfast.serve.jobspec import SweepSpec, canonicalize_sweep
from hfast.serve.store import JobLedger, ResultStore
from hfast.spec import ExecOptions, RunSpec, SpecError

PROTOCOL = "HTTP/1.1"
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 100
MAX_BODY = 1 << 20
IO_TIMEOUT = 10.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Everything ``hfast serve`` needs to run (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    cache_dir: str = ".repro_cache"
    serve_dir: str = ".hfast_serve"
    max_running: int = 2
    queue_limit: int = 8
    workers: int = 1
    scheduler: str = "stealing"
    trace_out: str | None = None
    store: bool = True
    bench_dir: str | None = None
    # LRU byte budget for the result store (None = unbounded); evictions
    # increment the serve.store_evictions_total counter.
    store_max_bytes: int | None = None
    # Seconds between heartbeat events on the bus (<= 0 disables them).
    # Tailing /v1/events clients use the heartbeat to tell "quiet daemon"
    # from "stalled daemon".
    heartbeat_interval: float = 2.0


@dataclass
class Job:
    """In-memory lifecycle record for one admitted submission."""

    job_id: str
    spec: RunSpec | SweepSpec
    key: str
    run_id: str
    kind: str = "analyze"  # "analyze" (POST /v1/jobs) or "sweep" (POST /v1/sweeps)
    status: str = "queued"
    error: str | None = None
    resume: str | None = None
    recovered: bool = False
    submitted: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    sched: dict[str, Any] | None = None
    attempts: int | None = None

    def doc(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "job_id": self.job_id,
            "key": self.key,
            "cell": self.spec.cell_key,
            "kind": self.kind,
            "status": self.status,
            "run_id": self.run_id,
            "recovered": self.recovered,
            "spec": self.spec.to_wire(),
        }
        if self.error is not None:
            d["error"] = self.error
        if self.status == "done":
            d["result_url"] = f"/v1/results/{self.key}"
        if self.sched is not None:
            d["scheduler"] = self.sched
        if self.attempts is not None:
            d["attempts"] = self.attempts
        return d


def _parse_spec(payload: Any, kind: str) -> RunSpec | SweepSpec:
    """A job body (or ledger entry) of either kind, validated."""
    return canonicalize_sweep(payload) if kind == "sweep" else RunSpec.from_wire(payload)


class AnalysisService:
    """The HTTP front end + job engine behind ``hfast serve``.

    All admission decisions (dedupe, cache check, backpressure) happen on
    the event-loop thread, so they are race-free by construction; only
    job *execution* leaves the loop, onto a ``max_running``-wide thread
    pool.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        root = Path(config.serve_dir)
        self.journal_dir = root / "journal"
        # How every job's cells run, checked before any job is admitted;
        # each job adds its run id (resumed when recovered).
        self.exec_options = ExecOptions(
            scheduler=config.scheduler,
            workers=config.workers,
            journal_dir=str(self.journal_dir),
            bench_dir=config.bench_dir,
        )

        # Service-level counters/gauges; pipeline metrics accumulate
        # separately so a scrape distinguishes "what the daemon did" from
        # "what the analyses did".
        self.metrics = MetricsRegistry(enabled=True)
        self.pipeline_metrics = MetricsRegistry(enabled=True)

        self.store = ResultStore(
            root / "results",
            max_bytes=config.store_max_bytes,
            on_evict=lambda _key: self.metrics.counter("serve.store_evictions_total").inc(),
        )
        self.ledger = JobLedger(root / "jobs")
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.bus = EventBus()
        self.ring = RingLog(capacity=512)
        self.bus.subscribe(self.ring.handle)

        self._trace_obs = (
            Observability(enabled=True, trace_sink=JsonlSink(config.trace_out), keep_events=False)
            if config.trace_out
            else Observability.disabled()
        )
        self._graft_lock = threading.Lock()

        # Structured daemon log (rotating JSONL under <serve_dir>/logs).
        from hfast.obs.logs import RotatingJsonlWriter, StructuredLogger

        self.log = StructuredLogger(
            RotatingJsonlWriter(root / "logs" / "daemon.jsonl")
        ).bind(component="serve")
        self._heartbeat_task: asyncio.Task | None = None

        self._jobs: dict[str, Job] = {}
        self._active: dict[str, Job] = {}  # result key -> in-flight job
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.max_running), thread_name_prefix="hfast-serve-job"
        )
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.log.info("serve_start", host=self.config.host, port=self.port)
        if self.config.heartbeat_interval > 0:
            self._heartbeat_task = self._loop.create_task(self._heartbeat_loop())
        self._recover()

    async def _heartbeat_loop(self) -> None:
        """Periodic liveness beacon on the event bus (lands in the ring).

        A tailing ``/v1/events`` client that stops seeing heartbeats can
        distinguish "the daemon is idle" from "the daemon is stalled".
        """
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            running = sum(1 for j in self._active.values() if j.status == "running")
            self.bus.publish(
                {
                    "event": "heartbeat",
                    "ts": round(time.time(), 6),
                    "running": running,
                    "queued": len(self._active) - running,
                    "draining": self._draining,
                }
            )

    def _recover(self) -> None:
        """Re-admit jobs a previous daemon left unfinished."""
        for rec in self.ledger.unfinished():
            kind = rec.get("kind") or "analyze"
            try:
                spec = _parse_spec(rec.get("spec"), kind)
            except SpecError as exc:
                rec.update(status="failed", error=f"unrecoverable spec: {exc}")
                self.ledger.write(rec)
                continue
            job_id = rec.get("job_id") or new_run_id()
            if spec.key in self._active:
                continue
            if self.store.has(spec.key):
                rec.update(status="done", key=spec.key)
                self.ledger.write(rec)
                continue
            job = Job(
                job_id=job_id,
                spec=spec,
                key=spec.key,
                run_id=rec.get("run_id") or new_run_id(),
                kind=kind,
                recovered=True,
            )
            if self.config.scheduler == "stealing" and has_journal(
                self.journal_dir, job.run_id
            ):
                job.resume = job.run_id
            self.metrics.counter("serve.jobs_recovered").inc()
            self._admit_job(job)

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, then stop."""
        self._draining = True
        self.metrics.gauge("serve.draining").set(1)
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._trace_obs.tracer.flush()
        self._trace_obs.tracer.close()
        self.log.info("serve_drained", jobs=len(self._jobs))
        self.log.close()

    # -- admission (event-loop thread only) ---------------------------------

    def _admit_job(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._active[job.key] = job
        self.log.info(
            "job_admitted",
            job_id=job.job_id,
            key=job.key,
            run_id=job.run_id,
            cell=job.spec.cell_key,
            kind=job.kind,
            recovered=job.recovered,
        )
        self.ledger.write(job.doc())
        self._update_gauges()
        assert self._loop is not None
        task = self._loop.create_task(self._run_job(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _submit(
        self, payload: Any, kind: str = "analyze"
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Admission decision for one POST /v1/jobs or /v1/sweeps body."""
        if self._draining:
            return (
                503,
                {"error": "service is draining; resubmit after restart"},
                {"Retry-After": "5"},
            )
        try:
            spec = _parse_spec(payload, kind)
        except SpecError as exc:
            return 400, {"error": "validation failed", "errors": exc.errors}, {}
        self.metrics.counter("serve.jobs_submitted").inc()
        key = spec.key

        inflight = self._active.get(key)
        if inflight is not None:
            self.metrics.counter("serve.jobs_deduped").inc()
            doc = inflight.doc()
            doc["deduped"] = True
            return 200, doc, {}

        if self.store.has(key):
            self.metrics.counter("serve.cache_hits").inc()
            return (
                200,
                {
                    "key": key,
                    "cell": spec.cell_key,
                    "status": "done",
                    "cached": True,
                    "result_url": f"/v1/results/{key}",
                },
                {},
            )

        budget = self.config.max_running + self.config.queue_limit
        if len(self._active) >= budget:
            self.metrics.counter("serve.rejected_429").inc()
            self.log.warning("job_rejected", cell=spec.cell_key, key=key, reason="budget")
            return (
                429,
                {"error": f"admission budget exhausted ({budget} jobs in flight)"},
                {"Retry-After": "1"},
            )

        job = Job(job_id=new_run_id(), spec=spec, key=key, run_id=new_run_id(), kind=kind)
        self._admit_job(job)
        return 202, job.doc(), {}

    def _update_gauges(self) -> None:
        # Called from both the loop and job threads; snapshot first so a
        # concurrent admission can't mutate the dict mid-iteration.
        active = list(self._active.values())
        running = sum(1 for j in active if j.status == "running")
        self.metrics.gauge("serve.running").set(running)
        self.metrics.gauge("serve.queue_depth").set(len(active) - running)

    # -- execution ----------------------------------------------------------

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None
        try:
            await self._loop.run_in_executor(self._executor, self._execute, job)
        finally:
            self._active.pop(job.key, None)
            self._update_gauges()

    def _execute(self, job: Job) -> None:
        """Worker-thread body: one pipeline run for one job."""
        job.status = "running"
        job.started = time.time()
        self.ledger.write(job.doc())
        self._update_gauges()
        self.bus.publish({"event": "job_start", "job_id": job.job_id, "cell": job.spec.cell_key})
        job_log = self.log.bind(
            job_id=job.job_id, key=job.key, run_id=job.run_id, cell=job.spec.cell_key
        )
        job_log.info("job_start", kind=job.kind, recovered=job.recovered)

        keep_events = self._trace_obs.enabled
        job_obs = Observability(enabled=True, keep_events=keep_events)
        runner = self._run_sweep_once if job.kind == "sweep" else self._run_pipeline_once
        out: dict[str, Any] | None = None
        try:
            out = runner(job, job_obs, self._job_options(job))
        except JournalError as exc:
            # The journal for a recovered run id is unusable (torn header,
            # fingerprint drift across a config change). Fall back to a
            # fresh run under a new id rather than failing the job.
            if job.resume is not None:
                job.resume = None
                job.run_id = new_run_id()
                self.bus.publish(
                    {"event": "job_resume_fallback", "job_id": job.job_id, "error": str(exc)}
                )
                try:
                    out = runner(job, job_obs, self._job_options(job))
                except Exception as retry_exc:  # noqa: BLE001 - job boundary
                    job.error = f"{type(retry_exc).__name__}: {retry_exc}"
            else:
                job.error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - job boundary
            job.error = f"{type(exc).__name__}: {exc}"

        if out is not None:
            manifest = out.get("manifest") or {}
            job.sched = manifest.get("scheduler")
            cells = manifest.get("cells") or []
            if cells:
                job.attempts = max(int(c.get("attempts", 1)) for c in cells)
            failed = manifest.get("failed_cells") or []
            if job.kind == "sweep":
                # A sweep succeeds as long as any candidate evaluated: the
                # frontier artifact itself records per-candidate failures.
                frontier = out.get("frontier") or {}
                if not frontier.get("evaluated"):
                    job.error = f"all candidate evaluations failed ({', '.join(failed)})"
                else:
                    # store.put serializes with sort_keys + trailing newline,
                    # exactly frontier_bytes() — so GET /v1/results/<key>
                    # is byte-identical to `hfast search --out`.
                    self.store.put(job.key, frontier)
            elif failed:
                detail = "; ".join(
                    f"{c.get('app')}_p{c.get('nranks')}: {c.get('error')}"
                    for c in cells
                    if not c.get("ok", True)
                )
                job.error = f"cell execution failed ({detail or ', '.join(failed)})"
            elif not out.get("results"):
                job.error = "pipeline returned no results"
            else:
                self.store.put(job.key, out["results"][0])

        job.status = "failed" if job.error is not None else "done"
        job.finished = time.time()
        self.metrics.counter(
            "serve.jobs_failed" if job.error else "serve.jobs_executed"
        ).inc()
        self.pipeline_metrics.merge_snapshot(job_obs.metrics.to_dict())
        self._graft_job(job, job_obs)
        self.ledger.write(job.doc())
        self._update_gauges()
        self.bus.publish(
            {
                "event": "job_done",
                "job_id": job.job_id,
                "cell": job.spec.cell_key,
                "status": job.status,
                "wall_s": job.finished - (job.started or job.finished),
            }
        )
        if job.error is not None:
            job_log.error("job_failed", error=job.error, wall_s=round(job.finished - (job.started or job.finished), 6))
        else:
            job_log.info("job_done", wall_s=round(job.finished - (job.started or job.finished), 6))

    def _job_options(self, job: Job) -> ExecOptions:
        """The daemon's options under ``job``'s run id, resumed when recovered."""
        return replace(self.exec_options, resume=job.resume, run_id=job.run_id)

    def _run_pipeline_once(
        self, job: Job, job_obs: Observability, options: ExecOptions
    ) -> dict[str, Any]:
        spec = job.spec
        ((app, nranks),) = spec.cells
        with using(job_obs):
            return run_pipeline(
                apps=[app],
                scales={app: [nranks]},
                cache_dir=self.config.cache_dir,
                obs=job_obs,
                config=spec.config,
                store=self.config.store,
                argv=["hfast-serve", job.job_id],
                timing_seed=spec.timing_seed,
                overrides=spec.overrides,
                options=options,
                service={"job_id": job.job_id, "key": job.key},
            )

    def _run_sweep_once(
        self, job: Job, job_obs: Observability, options: ExecOptions
    ) -> dict[str, Any]:
        # Sweep payloads only reach this daemon-thread path, so the DSE
        # import stays out of the common analyze flow.
        from hfast.dse.search import run_search

        assert isinstance(job.spec, SweepSpec)
        with using(job_obs):
            return run_search(
                job.spec.search,
                cache_dir=self.config.cache_dir,
                obs=job_obs,
                store=self.config.store,
                argv=["hfast-serve", job.job_id],
                options=options,
            )

    def _graft_job(self, job: Job, job_obs: Observability) -> None:
        """Re-root one job's span events under the daemon's unified trace.

        Mirrors the pipeline's worker-event graft: the job's locally
        numbered spans are remapped onto the daemon tracer's id space and
        hung off a synthetic ``serve_job`` root, so the daemon's JSONL
        trace is one forest with a root per job. Serialized by a lock —
        jobs finish concurrently but the tracer's id counter and sink
        are shared.
        """
        tracer = self._trace_obs.tracer
        if not tracer.enabled or job_obs.event_buffer is None:
            return
        events = job_obs.event_buffer.events
        with self._graft_lock:
            job_span_id = tracer.reserve_ids(1)
            max_local = max(
                (e["span_id"] for e in events if e.get("event") == "span"), default=0
            )
            base = tracer.reserve_ids(max_local + 1)
            for ev in events:
                ev = dict(ev)
                kind = ev.pop("event")
                if kind == "span":
                    ev["span_id"] = ev["span_id"] + base
                    if ev.get("parent_id") is None:
                        ev["parent_id"] = job_span_id
                    else:
                        ev["parent_id"] = ev["parent_id"] + base
                    ev["depth"] = ev.get("depth", 0) + 1
                else:
                    ev.setdefault("parent_id", job_span_id)
                tracer.emit_event(kind, ev)
            tracer.emit_event(
                "span",
                {
                    "name": "serve_job",
                    "span_id": job_span_id,
                    "parent_id": None,
                    "depth": 0,
                    "wall_s": (job.finished or 0.0) - (job.started or 0.0),
                    "peak_rss_kb": 0,
                    "attrs": {
                        "job_id": job.job_id,
                        "key": job.key,
                        "cell": job.spec.cell_key,
                        "kind": job.kind,
                        "status": job.status,
                    },
                },
            )
            tracer.flush()

    # -- HTTP ---------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(self._read_request(reader), IO_TIMEOUT)
            if request is None:
                return
            method, target, body = request
            status, ctype, payload, headers = self._route(method, target, body)
            await self._write_response(writer, status, ctype, payload, headers)
        except (asyncio.TimeoutError, ConnectionError):
            pass
        except _HttpError as exc:
            try:
                await self._write_response(
                    writer,
                    exc.status,
                    "application/json",
                    (json.dumps({"error": exc.message}) + "\n").encode("utf-8"),
                    {},
                )
            except (ConnectionError, asyncio.TimeoutError):
                pass
        except Exception:  # noqa: BLE001 - connection boundary
            try:
                await self._write_response(
                    writer,
                    500,
                    "application/json",
                    b'{"error": "internal server error"}\n',
                    {},
                )
            except (ConnectionError, asyncio.TimeoutError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        line = await reader.readline()
        if not line:
            return None  # client connected and went away
        if len(line) > MAX_REQUEST_LINE:
            raise _HttpError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        content_length = 0
        for _ in range(MAX_HEADERS):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            if len(header) > MAX_REQUEST_LINE:
                raise _HttpError(400, "header line too long")
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise _HttpError(400, "invalid Content-Length") from exc
        else:
            raise _HttpError(400, "too many headers")
        if content_length < 0 or content_length > MAX_BODY:
            raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        ctype: str,
        payload: bytes,
        headers: dict[str, str],
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [f"{PROTOCOL} {status} {reason}"]
        head.append(f"Content-Type: {ctype}")
        head.append(f"Content-Length: {len(payload)}")
        head.append("Connection: close")
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
        await asyncio.wait_for(writer.drain(), IO_TIMEOUT)

    def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes, dict[str, str]]:
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parsed.query)

        def json_response(
            status: int, doc: Any, headers: dict[str, str] | None = None
        ) -> tuple[int, str, bytes, dict[str, str]]:
            payload = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
            return status, "application/json", payload, headers or {}

        if path in ("/v1/jobs", "/v1/sweeps") and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8")) if body else None
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return json_response(400, {"error": f"invalid JSON body: {exc}"})
            kind = "sweep" if path == "/v1/sweeps" else "analyze"
            status, doc, headers = self._submit(payload, kind=kind)
            return json_response(status, doc, headers)

        if path == "/v1/jobs" and method == "GET":
            jobs = [job.doc() for job in self._jobs.values()]
            jobs.sort(key=lambda d: d["job_id"])
            return json_response(200, {"jobs": jobs, "active": len(self._active)})

        if path.startswith("/v1/jobs/") and method == "GET":
            job_id = path[len("/v1/jobs/"):]
            job = self._jobs.get(job_id)
            if job is not None:
                return json_response(200, job.doc())
            rec = self.ledger.read(job_id)
            if rec is not None:
                return json_response(200, rec)
            return json_response(404, {"error": f"no such job {job_id!r}"})

        if path.startswith("/v1/results/") and method == "GET":
            key = path[len("/v1/results/"):]
            raw = self.store.get_bytes(key)
            if raw is None:
                return json_response(404, {"error": f"no result for key {key!r}"})
            return 200, "application/json", raw, {}

        if path == "/healthz" and method == "GET":
            running = sum(1 for j in self._active.values() if j.status == "running")
            return json_response(
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "running": running,
                    "queued": len(self._active) - running,
                    "results": len(self.store.keys()),
                },
            )

        if path == "/metrics" and method == "GET":
            text = render_registries(self.metrics, self.pipeline_metrics)
            return 200, PROM_CONTENT_TYPE, text.encode("utf-8"), {}

        if path == "/v1/events" and method == "GET":
            if "cursor" in query:
                # Cursor-paginated tail: only events newer than the
                # client's last-seen seq, plus how many rotated out of
                # the ring before it caught up.
                try:
                    cursor = int(query["cursor"][0])
                except ValueError:
                    return json_response(400, {"error": "cursor must be an integer"})
                events, next_cursor, missed = self.ring.since(cursor)
                return json_response(
                    200,
                    {
                        "seen": self.ring.seen,
                        "cursor": next_cursor,
                        "missed": missed,
                        "events": events,
                    },
                )
            n = None
            if "n" in query:
                try:
                    n = int(query["n"][0])
                except ValueError:
                    return json_response(400, {"error": "n must be an integer"})
            return json_response(200, {"seen": self.ring.seen, "events": self.ring.tail(n)})

        known = {"/v1/jobs", "/v1/sweeps", "/healthz", "/metrics", "/v1/events"}
        if path in known or path.startswith(("/v1/jobs/", "/v1/results/")):
            return json_response(405, {"error": f"{method} not allowed on {path}"})
        return json_response(404, {"error": f"no such endpoint {path}"})


class _HttpError(Exception):
    """Protocol-level request failure mapped to a 4xx response."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class ServiceThread:
    """Run an :class:`AnalysisService` on a background event-loop thread.

    The embedding API for tests and the smoke script: boot the daemon
    in-process on an ephemeral port, talk to it over real sockets, drain
    it programmatically. Usable as a context manager; exit drains.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        self.service: AnalysisService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._drained = False

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="hfast-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error}")
        return self

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.service = AnalysisService(self.config)
        try:
            self.loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._error = exc
            self._ready.set()
            self.loop.close()
            return
        self._ready.set()
        try:
            self.loop.run_forever()
        finally:
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

    @property
    def port(self) -> int:
        assert self.service is not None and self.service.port is not None
        return self.service.port

    def drain(self, timeout: float = 120.0) -> None:
        """Synchronously run the graceful-drain path from the caller's thread."""
        if self._drained or self.service is None or self.loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.service.shutdown(), self.loop)
        future.result(timeout=timeout)
        self._drained = True

    def stop(self, timeout: float = 120.0) -> None:
        self.drain(timeout=timeout)
        if self.loop is not None and self.loop.is_running():
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


async def serve_forever(config: ServeConfig) -> int:
    """Foreground daemon entry: start, announce, wait for SIGTERM, drain."""
    service = AnalysisService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    # The exact line the subprocess tests and ops tooling wait for.
    print(f"hfast-serve listening on http://{config.host}:{service.port}", flush=True)
    await stop.wait()
    print("hfast-serve draining", flush=True)
    await service.shutdown()
    print("hfast-serve drained, exiting", flush=True)
    return 0


def run_serve(config: ServeConfig) -> int:
    """Synchronous wrapper the CLI dispatches to."""
    try:
        return asyncio.run(serve_forever(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        return 130
