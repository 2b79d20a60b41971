"""Pipeline orchestration: trace -> matrix -> topology -> interconnect.

What a run computes is one :class:`~hfast.spec.RunSpec`: the (app,
nranks) *cells*, the trace overrides, the timing seed and the
interconnect config. :func:`run_pipeline` builds it from its keywords
before any work, so a bad input is refused up front, and sends each cell
the spec's payload. How the cells run is one
:class:`~hfast.spec.ExecOptions`, and :func:`run_cells` runs a batch
under either of its two scheduler backends (design-space search runs
its candidates through it too):

- ``static`` (the default) — serial execution in this process, the
  reference every other execution must reproduce.
- ``stealing`` — the fault-tolerant work-stealing scheduler
  (:mod:`hfast.sched`), and the only way to run cells in parallel
  (``workers > 1``): a cost-ordered shared queue, per-cell retries with
  backoff, heartbeat-based detection of crashed/hung workers with
  re-dispatch, and a run journal (:func:`open_journal`) enabling
  ``resume=<run-id>``.

Either way the merged output is deterministic — cell results, trace
events, metrics, and cache statistics are stitched back together in
cell-definition order, never completion order, so a ``--workers 4`` run
is byte-identical to a serial one (modulo wall-clock timing fields and
scheduler bookkeeping). ``--shard i/m`` selects a deterministic subset of
cells so independent hosts can split a sweep and later union their
caches.

A failing cell does not abort the sweep: its error is recorded in the run
manifest (``cells`` / ``failed_cells``) and the remaining cells still
run. Under the stealing backend a cell that succeeds on a retry is *not*
a failure — the manifest records its ``attempts`` count instead.

Every stage runs under an observability span; per-record message sizes
feed the IPM-style log2 histograms; each cell emits one ``app_summary``
event carrying the full analysis result, which is what the run report is
rendered from. A run manifest is emitted before any work and re-emitted
with per-cell timings and cache statistics once the run completes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from hfast.apps import available_apps, synthesize
from hfast.cache import DEFAULT_CACHE_DIR, CacheStats, ReproCache
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import reduce_matrix, run_starts
from hfast.obs import stream
from hfast.obs.logs import get_logger
from hfast.obs.manifest import build_manifest
from hfast.obs.metrics import log2_bucket_array
from hfast.obs.profile import Observability, get_obs, using
from hfast.records import SEND_CALLS, RecordBatch, Trace
from hfast.sched.faults import inject_slow
from hfast.spec import ExecOptions, RunSpec
from hfast.timing import DEFAULT_TIMING_SEED, TimingModel
from hfast.topology import analyze_topology

# The scheduler, journal, cost model and anomaly detector are imported in
# the branches of run_pipeline that use them: a serial run never loads
# multiprocessing or the obs extras.
if TYPE_CHECKING:
    from hfast.obs.anomaly import AnomalyDetector
    from hfast.sched.cost import CostModel
    from hfast.sched.journal import RunJournal

DEFAULT_SCALES = (16, 64)


@dataclass(frozen=True)
class Cell:
    """One (app, nranks) unit of work, with its position in the sweep."""

    app: str
    nranks: int
    index: int

    @property
    def key(self) -> str:
        return f"{self.app}_p{self.nranks}"


def build_cells(apps: list[str], scales: dict[str, list[int]]) -> list[Cell]:
    """Flatten the app x scale matrix into an ordered cell list."""
    cells: list[Cell] = []
    for app in apps:
        for nranks in scales.get(app, list(DEFAULT_SCALES)):
            cells.append(Cell(app=app, nranks=nranks, index=len(cells)))
    return cells


def shard_cells(cells: list[Cell], shard_index: int, shard_count: int) -> list[Cell]:
    """Deterministic round-robin shard: cells whose index % count == index."""
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard index {shard_index} out of range for {shard_count} shards")
    return [c for c in cells if c.index % shard_count == shard_index]


def discover_scales(cache: ReproCache, apps: list[str]) -> dict[str, list[int]]:
    """Per-app scales present in the cache, with a default fallback."""
    scales: dict[str, list[int]] = {app: [] for app in apps}
    for path in cache.list_entries():
        parts = path.stem.split("_")
        if len(parts) < 3 or not parts[-2].startswith("p"):
            continue
        app = "_".join(parts[:-2])
        try:
            nranks = int(parts[-2][1:])
        except ValueError:
            continue
        if app in scales and nranks not in scales[app]:
            scales[app].append(nranks)
    for app in apps:
        scales[app] = sorted(scales[app]) or list(DEFAULT_SCALES)
    return scales


def _bucket_table(uniq: np.ndarray, weights: np.ndarray) -> dict[int, int]:
    """Log2-bucket table of ascending distinct values and their weights.

    Buckets of ascending values are contiguous, so the per-bucket sums
    are one ``reduceat``.
    """
    edges = log2_bucket_array(uniq)
    first = run_starts(edges)
    totals = np.add.reduceat(weights, first)
    return dict(zip(edges[first].tolist(), totals.tolist()))


def _observe_sizes(b: RecordBatch, app: str, obs: Observability) -> dict[int, int]:
    """Message-size bucket table; feeds the obs histograms when enabled.

    Works on unique sizes only, with aggregated weights, and each
    histogram takes them in one :meth:`~hfast.obs.metrics.Histogram.observe_many`
    call; with obs off the table is the only work.
    """
    local_buckets: dict[int, int] = {}
    size_hist = obs.metrics.histogram("msg_size_bytes") if obs.enabled else None
    app_hist = obs.metrics.histogram(f"msg_size_bytes.{app}") if obs.enabled else None
    mask = b.call_mask(SEND_CALLS) & (b.size > 0)
    if mask.any():
        uniq, inv = np.unique(b.size[mask], return_inverse=True)
        weights = np.bincount(inv, weights=b.count[mask].astype(np.float64)).astype(np.int64)
        local_buckets = _bucket_table(uniq, weights)
        if size_hist is not None:
            size_hist.observe_many(uniq, weights)
            app_hist.observe_many(uniq, weights)
    return local_buckets


def _observe_latencies(b: RecordBatch, app: str, obs: Observability) -> dict[int, int]:
    """Per-call mean-latency bucket table (microseconds), log2-bucketed.

    The mean latency of an aggregated record is ``total_time / count``;
    each record contributes its ``count`` calls at that latency. The
    table is one ``bincount`` of the counts by bucket, with no sort of
    the latencies. Only the obs histograms need the distinct latencies:
    like :func:`_observe_sizes`, duplicates collapse before touching the
    instruments. An untimed batch has no latencies.
    """
    lat_hist = obs.metrics.histogram("call_latency_usec") if obs.enabled else None
    app_hist = obs.metrics.histogram(f"call_latency_usec.{app}") if obs.enabled else None
    mask = b.count > 0
    if not (b.has_times and mask.any()):
        return {}
    counts = b.count[mask].astype(np.float64)
    mean_usec = (b.total_time[mask] / counts) * 1e6
    # Bucket 2**k lands in slot k + 1 and bucket 0 in slot 0. Every count
    # is positive, so a slot with calls has a nonzero total.
    _, slot = np.frexp(log2_bucket_array(mean_usec))
    totals = np.bincount(slot, weights=counts).astype(np.int64)
    filled = np.flatnonzero(totals).tolist()
    if lat_hist is not None:
        uniq, inv = np.unique(mean_usec, return_inverse=True)
        weights = np.bincount(inv, weights=counts).astype(np.int64)
        lat_hist.observe_many(uniq, weights)
        app_hist.observe_many(uniq, weights)
    return {(1 << s) >> 1: t for s, t in zip(filled, totals[filled].tolist())}


def _timing_summary(
    trace: Trace,
    timing_seed: int,
    overrides: dict[str, Any] | None,
    latency_buckets: dict[int, int],
) -> dict[str, Any]:
    """%comm block of an app summary: comm vs compute at the model's seed."""
    b = trace.batch
    comm_time_s = float(np.sum(b.total_time)) if b.has_times else 0.0
    model = TimingModel(trace.app, trace.nranks, seed=timing_seed)
    compute_time_s = model.compute_time(overrides)
    comm_per_rank = comm_time_s / trace.nranks
    wall_time_s = comm_per_rank + compute_time_s
    pct_comm = 100.0 * comm_per_rank / wall_time_s if wall_time_s > 0 else 0.0
    return {
        "seed": timing_seed,
        "model": trace.timing.get("model") if trace.timing else None,
        "comm_time_s": comm_time_s,
        "compute_time_s": compute_time_s,
        "wall_time_s": wall_time_s,
        "pct_comm": round(pct_comm, 3),
        "latency_buckets": {str(k): v for k, v in sorted(latency_buckets.items())},
    }


def analyze_app(
    app: str,
    nranks: int,
    cache: ReproCache,
    obs: Observability,
    config: InterconnectConfig | None = None,
    overrides: dict[str, Any] | None = None,
    store: bool = True,
    timing_seed: int = DEFAULT_TIMING_SEED,
) -> dict[str, Any]:
    """Analyze one (app, nranks) cell and emit its app_summary event."""
    with using(obs), obs.tracer.span("analyze_app", app=app, nranks=nranks) as sp:
        trace: Trace | None = cache.load(app, nranks, overrides, timing_seed=timing_seed)
        if trace is None:
            trace = synthesize(app, nranks, overrides, timing_seed=timing_seed)
            if store:
                cache.store(trace)
        batch = trace.ensure_batch()
        cm = reduce_matrix(batch, trace.nranks)
        topo = analyze_topology(cm)
        ev = evaluate_hybrid(cm, config)
        ev_temporal = evaluate_temporal(cm, config, static=ev)

        local_buckets = _observe_sizes(batch, app, obs)
        latency_buckets = _observe_latencies(batch, app, obs)
        if obs.enabled:
            for call, total in batch.call_totals.items():
                obs.metrics.counter(f"calls.{call}").inc(total)
            obs.metrics.counter("pipeline.bytes_total").inc(cm.total_bytes)
            obs.metrics.counter("pipeline.messages_total").inc(cm.total_messages)
            obs.metrics.counter("pipeline.apps_analyzed").inc()

        top_peers = []
        # The five highest-degree ranks, lowest rank first among ties.
        for rank in np.argsort(-topo.degrees, kind="stable")[:5].tolist():
            peers = cm.top_peers(rank, k=1)
            if peers:
                top_peers.append(
                    {"rank": rank, "peer": peers[0][0], "bytes": peers[0][1]}
                )

        summary: dict[str, Any] = {
            "app": app,
            "nranks": nranks,
            "overrides": dict(overrides or {}),
            "call_totals": batch.call_totals,
            "total_bytes": cm.total_bytes,
            "total_messages": cm.total_messages,
            "nonzero_links": cm.nonzero_links(),
            "size_buckets": {str(k): v for k, v in sorted(local_buckets.items())},
            "top_peers": top_peers,
            "topology": topo.to_dict(),
            "interconnect": ev.to_dict(),
            "interconnect_temporal": ev_temporal.to_dict(),
            "timing": _timing_summary(trace, timing_seed, overrides, latency_buckets),
        }
        sp.set_attr("total_bytes", cm.total_bytes)
        sp.set_attr("max_degree", topo.max_degree)
        obs.tracer.emit_event("app_summary", summary)
        return summary


def _execute_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Cell entry point: run one cell (in-process or in a worker process).

    Builds a private cache handle and observability buffer, so everything
    the cell produced (summary, span/app_summary events, metrics, cache
    statistics) comes back as one picklable result the parent merges
    deterministically. When the payload carries ``live=True`` and this
    process has a registered stream channel, every event is *also*
    forwarded live with trace context attached — annotated copies only,
    so the buffered events (and therefore the merged trace) are identical
    with and without streaming.
    """
    forward = stream.forward_sink_for(payload)
    obs = Observability(enabled=payload["profiled"], trace_sink=forward, keep_events=True)
    cache = ReproCache(payload["cache_dir"], readonly=not payload["store"])
    if forward is not None:
        forward.emit({"event": "cell_start"})
    t0 = time.perf_counter()
    t_start = time.time()  # absolute stamp for post-hoc gantt/attribution
    ok, summary, error = True, None, None
    try:
        inject_slow(f"{payload['app']}_p{payload['nranks']}", payload.get("attempt", 1))
        summary = analyze_app(
            payload["app"],
            payload["nranks"],
            cache,
            obs,
            config=payload["config"],
            overrides=payload["overrides"],
            store=payload["store"],
            timing_seed=payload["timing_seed"],
        )
    except Exception as exc:  # surfaced per-cell, never aborts the sweep
        ok, error = False, f"{type(exc).__name__}: {exc}"
    return {
        "app": payload["app"],
        "nranks": payload["nranks"],
        "index": payload["index"],
        "ok": ok,
        "error": error,
        "summary": summary,
        "wall_s": time.perf_counter() - t0,
        "t_start": t_start,
        "t_end": time.time(),
        "pid": os.getpid(),
        "events": obs.events,
        "metrics": obs.metrics.to_dict() if obs.enabled else {},
        "cache": cache.stats.to_dict(),
    }


def graft_cell(
    obs: Observability,
    res: dict[str, Any],
    root_id: int | None,
    span_name: str = "cell",
    extra_attrs: dict[str, Any] | None = None,
) -> None:
    """Re-emit a cell's events under a synthetic ``cell`` span.

    Every attempt's events (failed prior attempts included) are remapped
    onto the parent tracer's id space and re-rooted: a worker-side root
    span (``parent_id is None``) becomes a child of the cell span, tagged
    with its attempt number, so retries appear as sibling subtrees rather
    than duplicate roots. The cell span itself hangs off ``root_id`` (the
    run's ``pipeline`` span), making the merged trace one tree.

    Empty attempt batches (faults that fired before any span was emitted)
    graft nothing and reserve no ids, so fault-injected runs keep the
    exact span numbering of a clean run.

    ``span_name``/``extra_attrs`` let other cell-shaped workloads (the
    DSE search grafts per-candidate subtrees as ``candidate`` spans)
    reuse the same remapping; the defaults preserve the analysis
    pipeline's trace shape bit-for-bit.
    """
    if not obs.enabled:
        return
    tracer = obs.tracer
    cell_span_id = tracer.reserve_ids(1)
    batches = list(res.get("prior_attempts") or [])
    batches.append({"attempt": res.get("attempts", 1), "events": res.get("events") or []})
    for batch in batches:
        events = batch.get("events") or []
        if not events:
            continue
        max_local = max(
            (e["span_id"] for e in events if e.get("event") == "span"), default=0
        )
        # Claim max_local + 1 ids: remapped ids land on base+1..base+max_local,
        # keeping the tracer's next fresh id clear of the block.
        base = tracer.reserve_ids(max_local + 1)
        for ev in events:
            ev = dict(ev)
            kind = ev.pop("event")
            if kind == "span":
                ev["span_id"] = ev["span_id"] + base
                if ev.get("parent_id") is None:
                    ev["parent_id"] = cell_span_id
                    attrs = dict(ev.get("attrs") or {})
                    attrs["attempt"] = batch.get("attempt", 1)
                    ev["attrs"] = attrs
                else:
                    ev["parent_id"] = ev["parent_id"] + base
                ev["depth"] = ev.get("depth", 0) + 2
            else:
                # Non-span worker events (app_summary) keep a pointer to
                # their cell so the trace tree covers every event.
                ev.setdefault("parent_id", cell_span_id)
            tracer.emit_event(kind, ev)
    attrs: dict[str, Any] = {
        "app": res["app"],
        "nranks": res["nranks"],
        "attempts": res.get("attempts", 1),
        "ok": bool(res.get("ok")),
    }
    if extra_attrs:
        attrs.update(extra_attrs)
    tracer.emit_event(
        "span",
        {
            "name": span_name,
            "span_id": cell_span_id,
            "parent_id": root_id,
            "depth": 1,
            "wall_s": res.get("wall_s", 0.0),
            "peak_rss_kb": 0,
            "attrs": attrs,
        },
    )


def cell_timing_event(res: dict[str, Any]) -> dict[str, Any]:
    """The ``cell_timing`` event of a cell result that carries ``t_start``.

    Its wall-clock execution window, for post-hoc scheduler attribution
    (queue wait, utilization, gantt): wall-clock-derived by construction,
    hence outside the byte-identity contract; the analytics layer reads
    it, the report builder ignores it. There is no "cell" key: buffered
    events are never cell-context-stamped, and app + nranks identify it.
    """
    return {
        "app": res.get("app"),
        "nranks": res.get("nranks"),
        "index": res.get("index"),
        "worker": res.get("worker"),
        "pid": res.get("pid"),
        "attempts": res.get("attempts", 1),
        "ok": bool(res.get("ok")),
        "t_start": res["t_start"],
        "t_end": res.get("t_end"),
    }


def _merge_cache_stats(target: CacheStats, snap: dict[str, Any]) -> None:
    target.hits += snap.get("hits", 0)
    target.misses += snap.get("misses", 0)
    target.stores += snap.get("stores", 0)
    target.validation_failures += snap.get("validation_failures", 0)
    target.entries.extend(snap.get("entries", []))


def open_journal(
    spec: Any,
    cache_dir: str,
    store: bool,
    options: ExecOptions,
    shard: tuple[int, int] | None = None,
) -> tuple[RunJournal | None, dict[str, Any]]:
    """The run's journal, and the manifest's ``scheduler`` section so far.

    Only the stealing scheduler keeps a journal: it resumes
    ``options.resume`` or starts a new one, fingerprinted with ``spec``
    (a :class:`~hfast.spec.RunSpec` or a search spec) and where its
    results land. A serial run opens nothing and imports no journal code.
    """
    sched_info: dict[str, Any] = {"backend": options.scheduler}
    if options.scheduler != "stealing":
        return None, sched_info
    from hfast.sched.journal import RunJournal, build_fingerprint, journal_dir_for

    journal = RunJournal.open(
        journal_dir_for(cache_dir, options.journal_dir),
        build_fingerprint(spec, cache_dir, store, shard),
        resume=options.resume,
        run_id=options.run_id,
    )
    sched_info["run_id"] = journal.run_id
    sched_info["resumed"] = options.resume is not None
    return journal, sched_info


def close_journal(journal: RunJournal | None, ok: bool) -> None:
    """Mark ``journal``'s run complete, once, after the runner's last
    batch, when every cell of the run is ``ok``."""
    if journal is not None and ok and not journal.complete:
        journal.record_complete()


def run_cells(
    cells: Sequence[Any],
    payload_for: Callable[[Any], dict[str, Any]],
    options: ExecOptions,
    journal: RunJournal | None = None,
    cost_model: CostModel | None = None,
    obs: Observability | None = None,
    bus: stream.EventBus | None = None,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Run a batch of cells and return their results in cell order, with
    the scheduler's stats.

    ``cells`` are ``app``/``nranks``/``index`` records, and
    ``payload_for(cell)`` is what the cell harness runs. Under ``static``
    the cells run serially in this process, through the same harness as
    the stealing scheduler's workers, and the stats are empty; ``bus``
    gets each cell's ``cell_state`` transitions. Under ``stealing`` they
    run on :func:`~hfast.sched.scheduler.run_stealing` with ``options``'
    worker, retry and heartbeat settings, replaying what ``journal``
    holds.
    """
    if options.scheduler == "stealing":
        from hfast.sched.scheduler import SchedulerConfig, run_stealing

        config = SchedulerConfig(
            workers=options.workers,
            max_retries=options.max_retries,
            heartbeat_timeout=options.heartbeat_timeout,
            retry_backoff=options.retry_backoff,
        )
        return run_stealing(
            cells,
            lambda cell, attempt: payload_for(cell),
            _execute_cell,
            config,
            cost_model=cost_model,
            obs=obs,
            journal=journal,
            on_event=bus.publish if bus is not None else None,
        )
    results = []
    if bus is not None:
        stream.set_worker_channel(bus.publish, worker_id=0)
    try:
        for cell in cells:
            state = {"event": "cell_state", "cell": cell.key, "worker": 0, "attempt": 1}
            if bus is not None:
                bus.publish({**state, "state": "running", "stolen": False})
            res = _execute_cell(payload_for(cell))
            if bus is not None:
                bus.publish({**state, "state": "done" if res["ok"] else "failed",
                             "wall_s": res["wall_s"]})
            results.append(res)
    finally:
        if bus is not None:
            stream.clear_worker_channel()
    return results, {}


def run_pipeline(
    apps: list[str] | None = None,
    scales: dict[str, list[int]] | None = None,
    cache_dir: str = DEFAULT_CACHE_DIR,
    obs: Observability | None = None,
    config: InterconnectConfig | None = None,
    store: bool = True,
    argv: list[str] | None = None,
    shard: tuple[int, int] | None = None,
    timing_seed: int = DEFAULT_TIMING_SEED,
    overrides: dict[str, Any] | None = None,
    options: ExecOptions = ExecOptions(),
    service: dict[str, Any] | None = None,
    bus: "stream.EventBus | None" = None,
    anomaly: AnomalyDetector | None = None,
    anomaly_threshold: float | None = None,
) -> dict[str, Any]:
    """Run the analysis matrix; returns {manifest, results, anomalies}.

    ``apps`` x ``scales`` (scales default to the cached ones), ``overrides``,
    ``timing_seed`` and ``config`` are the run's declared inputs: they
    form one :class:`~hfast.spec.RunSpec`, checked before any work
    (:class:`~hfast.spec.SpecError`), which keys the journal and builds
    every cell's payload. ``shard=(i, m)`` restricts the run to every
    m-th cell starting at i. Failed cells are recorded in
    ``manifest["cells"]`` / ``manifest["failed_cells"]`` and excluded
    from ``results``.

    ``options`` (:class:`~hfast.spec.ExecOptions`) decides how the cells
    run: serially, or on the fault-tolerant work-stealing backend, which
    ``workers > 1`` requires. There cells are pulled
    largest-estimated-cost-first, transient failures retry with
    exponential backoff, crashed or hung workers have their cells
    re-dispatched, and progress is journaled so ``resume=<run-id>``
    replays completed cells instead of re-running them (the serve daemon
    pins ``run_id`` to find a journal again after a crash). Scheduler
    bookkeeping lands in ``manifest["scheduler"]``; per-cell ``attempts``
    in ``manifest["cells"]``.

    ``bus`` turns on live telemetry: run/cell state transitions and every
    worker event (with trace context attached) are published to the bus
    as they happen. The stream is a strict side-channel — merged trace,
    metrics, manifest, and report artifacts are identical with and
    without it.

    Completed cells are scored by an online straggler/regression detector
    (``anomaly``, or a default calibrated from ``options.bench_dir`` and
    ``anomaly_threshold``); flagged cells are emitted as ``anomaly``
    trace events and returned under ``"anomalies"``.

    ``service`` is provenance only: it lands in the manifest so a served
    artifact is traceable to its HTTP submission.
    """
    obs = obs if obs is not None else get_obs()
    cache = ReproCache(cache_dir, readonly=not store)
    apps = list(apps) if apps else available_apps()
    scales = scales or discover_scales(cache, apps)

    cells = build_cells(apps, scales)
    spec = RunSpec(
        cells=tuple((c.app, c.nranks) for c in cells),
        overrides=overrides or {},
        timing_seed=timing_seed,
        config=config if config is not None else InterconnectConfig(),
    )
    if shard is not None:
        cells = shard_cells(cells, shard[0], shard[1])

    scheduler, workers, bench_dir = options.scheduler, options.workers, options.bench_dir
    journal, sched_info = open_journal(spec, cache_dir, store, options, shard)
    if journal is not None:
        run_id = journal.run_id
    elif bus is not None:
        from hfast.sched.journal import new_run_id

        # Live-only identity; deliberately kept out of the static manifest
        # so live mode cannot perturb the deterministic artifacts.
        run_id = new_run_id()
    else:
        run_id = None

    manifest = build_manifest(
        apps, scales, argv=argv, workers=workers, shard=shard, scheduler=sched_info,
        service=service,
    )
    obs.tracer.emit_event("manifest", manifest)

    # Structured logging is a pure side channel (separate file, wall-clock
    # allowed): a no-op unless configure_logging() installed a sink.
    log = get_logger(component="pipeline", run_id=run_id)
    log.info(
        "run_start", scheduler=scheduler, workers=workers,
        ncells=len(cells), apps=apps,
    )

    cost_model: CostModel | None = None
    if scheduler == "stealing" or bus is not None:
        from hfast.sched.cost import CostModel

        cost_model = CostModel.from_bench_dir(bench_dir)

    detector = anomaly
    if detector is None and (obs.enabled or bus is not None):
        from hfast.obs.anomaly import AnomalyDetector

        kwargs = {"threshold": anomaly_threshold} if anomaly_threshold else {}
        detector = AnomalyDetector.from_bench_dir(bench_dir, **kwargs)

    def payload_for(cell: Cell) -> dict[str, Any]:
        return spec.cell_payload(
            cell, cache_dir, store, obs.enabled,
            live=bus is not None,
            ctx=(
                {"run_id": run_id, "cell": cell.key, "index": cell.index}
                if bus is not None
                else None
            ),
        )

    cell_reports: list[dict[str, Any]] = []
    results: list[dict[str, Any]] = []
    anomalies: list[dict[str, Any]] = []
    with obs.tracer.span(
        "pipeline", napps=len(apps), ncells=len(cells), workers=workers
    ) as pipe_sp:
        root_id = getattr(pipe_sp, "span_id", None)
        if bus is not None:
            bus.publish(
                {
                    "event": "run_start",
                    "run_id": run_id,
                    "scheduler": scheduler,
                    "workers": workers,
                    "cells": [
                        {
                            "cell": c.key,
                            "app": c.app,
                            "nranks": c.nranks,
                            "index": c.index,
                            "est": cost_model.estimate(c.app, c.nranks)
                            if cost_model is not None
                            else None,
                        }
                        for c in cells
                    ],
                }
            )
        raw, stats = run_cells(
            cells, payload_for, options, journal=journal, cost_model=cost_model, obs=obs, bus=bus
        )
        close_journal(journal, all(res["ok"] for res in raw))
        if journal is not None:
            sched_info.update(stats, journal=str(journal.path))
        # Merged in cell order, never completion order.
        for res in raw:
            graft_cell(obs, res, root_id)
            if obs.enabled:
                if res.get("t_start") is not None:
                    obs.tracer.emit_event("cell_timing", cell_timing_event(res))
                obs.metrics.merge_snapshot(res["metrics"])
            _merge_cache_stats(cache.stats, res["cache"])
            ok, attempts = bool(res["ok"]), res.get("attempts", 1)
            cell_reports.append(
                {
                    "app": res["app"],
                    "nranks": res["nranks"],
                    "ok": res["ok"],
                    "wall_s": round(res["wall_s"], 6),
                    "error": res["error"],
                    "attempts": attempts,
                }
            )
            log.log(
                "info" if ok else "error",
                "cell_done",
                cell=f"{res['app']}_p{res['nranks']}",
                ok=ok,
                attempts=attempts,
                wall_s=round(res["wall_s"], 6),
                error=res["error"],
            )
            if res["summary"] is not None:
                results.append(res["summary"])
            if detector is not None:
                for a in detector.observe(
                    res["app"], res["nranks"], res["wall_s"], attempts=attempts, ok=ok
                ):
                    anomalies.append(a)
                    obs.tracer.emit_event("anomaly", a)
                    if bus is not None:
                        bus.publish({"event": "anomaly", **a})

    manifest["cells"] = cell_reports
    manifest["failed_cells"] = [
        f"{c['app']}_p{c['nranks']}" for c in cell_reports if not c["ok"]
    ]
    manifest["cache"] = cache.stats.to_dict()
    manifest["scheduler"] = sched_info
    obs.tracer.emit_event("manifest", manifest)

    if bus is not None:
        bus.publish(
            {
                "event": "run_end",
                "run_id": run_id,
                "failed_cells": manifest["failed_cells"],
                "anomalies": len(anomalies),
            }
        )

    log.info(
        "run_done",
        cells=len(cell_reports),
        failed=len(manifest["failed_cells"]),
        anomalies=len(anomalies),
    )

    return {
        "manifest": manifest,
        "results": results,
        "anomalies": anomalies,
    }
