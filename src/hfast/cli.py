"""Command-line interface.

Subcommands::

    python -m hfast analyze [--apps a,b] [--scales 16,64] [--profile]
                            [--workers N] [--shard i/m] [--strict]
                            [--timing-seed N] [--timesteps N] [--reconfig-cost S]
                            [--trace-out T.jsonl] [--metrics-out M.json]
                            [--report-dir DIR] [--bench-dir DIR] ...
    python -m hfast report  --trace T.jsonl [--report-dir DIR] [--bench-dir DIR]
    python -m hfast trace   {summary,critical-path,flame,gantt,diff} TRACE ...
    python -m hfast serve   [--host H] [--port P] [--serve-dir DIR] ...
    python -m hfast search  --app A --scale N [--circuits 1,2,4] [--strategy grid] ...
    python -m hfast apps    [--cache-dir DIR]
    python -m hfast obs     tail LOG [-n N] [--level L] [--event E]

``--profile`` turns the observability layer on; ``--trace-out`` /
``--metrics-out`` imply it. With no profiling flags, the pipeline runs
with observability disabled (the near-zero-overhead path).

The apps, scales, ``--timing-seed`` and interconnect flags form one
:class:`~hfast.spec.RunSpec`, checked before anything runs or any output
opens: a bad value (an unknown app, a scale above 2^20, ``--timesteps``
above 4096, a negative cost) exits 2 naming every bad field.

``--workers N`` (N > 1) runs (app, scale) cells on N worker processes
under the work-stealing scheduler; the merged output is deterministic
and byte-identical to a serial run. ``--shard i/m`` selects every m-th
cell starting at i, for splitting a sweep across hosts. A failing cell
is reported and skipped; the exit code is nonzero only when every cell
failed, or when any cell failed under ``--strict``.

``--scheduler stealing`` (implied by ``--workers N>1``) runs cells on the
fault-tolerant work-stealing scheduler: cost-ordered shared queue,
``--max-retries`` per-cell retries with backoff, hung/crashed-worker
re-dispatch (``--heartbeat-timeout``), and a run journal. ``--resume
RUN_ID`` (implies the stealing backend) replays a prior run's completed
cells from the journal and executes only what is left. A cell that
succeeds on retry is not a failure: ``--strict`` only trips on cells
that exhausted their retries.

``--live`` streams telemetry while the run executes: a repainting TTY
status view (per-cell state, steal/retry counters, cost-model ETA,
flagged stragglers) that degrades to periodic log lines when stderr is
not a TTY. ``--metrics-port N`` serves Prometheus text exposition on
``http://127.0.0.1:N/metrics`` for the duration of the run (0 picks a
free port). Both imply ``--profile`` and are strict side-channels: the
merged trace/metrics/report artifacts are byte-identical with or
without them.

``hfast trace`` analyzes any ``--trace-out`` JSONL file or scheduler
journal post-mortem: ``summary`` (critical path, stage self-times,
scheduler attribution), ``critical-path`` (``--weight cost`` is
backend-invariant), ``flame`` (folded stacks or speedscope JSON),
``gantt`` (ASCII cell timeline), and ``diff A B`` (stage/cell deltas
between two runs).

``hfast serve`` runs the analysis-as-a-service daemon: an HTTP API
(``POST /v1/jobs``) over the (app, scale, seed, timing/interconnect
config) space, with a content-addressed result cache,
single-flight dedupe of identical in-flight submissions, bounded
admission with ``429`` backpressure, Prometheus ``/metrics``, and a
graceful SIGTERM drain. Served results are byte-identical to a direct
``hfast analyze`` run of the same spec.

``hfast search`` explores the interconnect design space (circuit
counts, reconfiguration cost, traffic-slice granularity) against one
(app, scale) workload and reports the Pareto frontier over (coverage,
packet-fallback bytes, reconfiguration cost, analytic evaluation cost).
Candidate evaluations dispatch through the same serial and work-stealing
backends as analysis cells, so searches retry, journal, and
``--resume`` — and the ``--out`` frontier artifact is byte-identical
across all of them for a fixed spec.

``hfast apps`` prints each app's description, the scales its cache
holds and its LogGP params: the built-in ``APP_PARAMS``, the one table
every run reads.

``hfast obs tail`` reads a structured log (``analyze --log-out``, the
serve daemon's ``logs/daemon.jsonl``) across its rotation chain.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from hfast.apps import APPS, available_apps
from hfast.cache import DEFAULT_CACHE_DIR, CacheValidationError, ReproCache
from hfast.obs.profile import Observability, configure
from hfast.obs.trace import JsonlSink
from hfast.pipeline import build_cells, discover_scales, run_pipeline
from hfast.spec import SCHEDULERS, ExecOptions, InterconnectConfig, RunSpec, SpecError
from hfast.timing import DEFAULT_TIMING_SEED

if TYPE_CHECKING:
    from hfast.obs.analytics import TraceTree

DEFAULT_REPORT_DIR = "reports"


def _csv(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _csv_ints(value: str) -> list[int]:
    try:
        return [int(v) for v in _csv(value)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {value!r}") from exc


def _csv_floats(value: str) -> list[float]:
    try:
        return [float(v) for v in _csv(value)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {value!r}") from exc


def _count(value: str) -> int:
    """Parse a record count: a decimal integer of at least 0."""
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count of at least 0: {value!r}")
    return int(value)


def _port(value: str) -> int:
    """Parse a TCP port: an integer in [0, 65535], where 0 picks a free one."""
    try:
        port = int(value)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"expected a port in [0, 65535]: {value!r}")
    return port


def _multiple(value: str) -> float:
    """Parse a threshold multiple: a finite number above 0."""
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number above 0: {value!r}")
    return x


def _shard(value: str) -> tuple[int, int]:
    """Parse --shard i/m (0-based shard index out of m shards)."""
    try:
        index_s, count_s = value.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected i/m (e.g. 0/2): {value!r}") from exc
    if count <= 0 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(f"shard index must satisfy 0 <= i < m: {value!r}")
    return (index, count)


def _add_exec_flags(p: argparse.ArgumentParser, unit: str) -> None:
    """The scheduler flags ``analyze`` and ``search`` share: one per
    :class:`~hfast.spec.ExecOptions` field a user sets, with its default.
    ``unit`` names what the scheduler runs (cell, candidate)."""
    p.add_argument(
        "--workers", type=int, default=ExecOptions.workers,
        help=f"run {unit}s on N worker processes under the work-stealing "
             "scheduler (default: serial, in process)",
    )
    p.add_argument(
        "--scheduler", choices=SCHEDULERS, default=ExecOptions.scheduler,
        help=f"{unit} scheduler: serial (static) or fault-tolerant work stealing; "
             "--workers N>1 implies stealing",
    )
    p.add_argument(
        "--resume", default=ExecOptions.resume, metavar="RUN_ID",
        help="resume a prior stealing run from its journal (implies --scheduler stealing)",
    )
    p.add_argument(
        "--max-retries", type=int, default=ExecOptions.max_retries,
        help=f"stealing scheduler: retries per {unit} after the first attempt",
    )
    p.add_argument(
        "--heartbeat-timeout", type=float, default=ExecOptions.heartbeat_timeout,
        help=f"stealing scheduler: seconds of worker silence before re-dispatching its {unit}",
    )
    p.add_argument(
        "--journal-dir", default=ExecOptions.journal_dir,
        help="stealing scheduler: run-journal directory (default: <cache-dir>/.sched_journal)",
    )


def _scheduler(requested: str, workers: int, resume: str | None = None) -> str:
    """``--workers N>1`` or ``--resume`` selects the stealing scheduler."""
    return "stealing" if workers > 1 or resume else requested


def _exec_options(args: argparse.Namespace) -> ExecOptions:
    """The :class:`~hfast.spec.ExecOptions` of an ``analyze`` or ``search``
    run; ``--bench-dir`` (default: the working directory) calibrates the
    cost model and the anomaly detector."""
    return ExecOptions(
        scheduler=_scheduler(args.scheduler, args.workers, args.resume),
        workers=args.workers,
        max_retries=args.max_retries,
        heartbeat_timeout=args.heartbeat_timeout,
        journal_dir=args.journal_dir,
        resume=args.resume,
        bench_dir=args.bench_dir or ".",
    )


def _observability(args: argparse.Namespace, profiling: bool) -> Observability:
    """The process's observability: on when ``profiling``, with a JSONL
    sink for ``--trace-out``."""
    obs = Observability.disabled()
    if profiling:
        sink = JsonlSink(args.trace_out) if args.trace_out else None
        obs = Observability(enabled=True, trace_sink=sink, keep_events=True)
    configure(obs)
    return obs


def _write_report(events: list, report_dir: str | None, bench_dir: str | None) -> None:
    """Render the report of a run's events and name the files written."""
    from hfast.obs.report import build_report, write_report

    report = build_report(events)
    for kind, path in write_report(report, report_dir or DEFAULT_REPORT_DIR, bench_dir).items():
        print(f"{kind}: {path}")


def _print_sched(sched: dict) -> None:
    """The stealing scheduler's summary of a run, if it ran one."""
    if sched.get("backend") != "stealing":
        return
    print(
        f"scheduler: stealing run {sched.get('run_id', '?')} "
        f"(steals={sched.get('steals', 0)} retries={sched.get('retries', 0)} "
        f"redispatches={sched.get('redispatches', 0)} "
        f"replayed={sched.get('cells_from_journal', 0)})"
    )
    if sched.get("journal"):
        print(f"journal: {sched['journal']} (resume with --resume {sched.get('run_id')})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfast",
        description="Ultra-scale communication analysis for a hybrid interconnect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the analysis pipeline")
    p_an.add_argument("--apps", type=_csv, default=None, help="comma-separated app list")
    p_an.add_argument(
        "--scales",
        type=_csv_ints,
        default=None,
        help="comma-separated rank counts (applied to every app; default: the scales "
             "cached for the app, else 16,64)",
    )
    p_an.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p_an.add_argument("--no-store", action="store_true", help="do not write cache misses back")
    p_an.add_argument(
        "--circuits", type=int, default=InterconnectConfig.circuits_per_node,
        help="circuits per node for the hybrid eval",
    )
    p_an.add_argument(
        "--timing-seed", type=int, default=DEFAULT_TIMING_SEED,
        help="seed for the deterministic LogGP timing model",
    )
    p_an.add_argument(
        "--timesteps", type=int, default=InterconnectConfig.timesteps,
        help="traffic slices for the temporal circuit evaluator (1 = static)",
    )
    p_an.add_argument(
        "--reconfig-cost", type=float, default=InterconnectConfig.reconfig_cost,
        help="seconds charged per circuit reconfiguration in the temporal evaluator",
    )
    _add_exec_flags(p_an, "cell")
    p_an.add_argument(
        "--shard", type=_shard, default=None, metavar="i/m",
        help="run only every m-th (app, scale) cell starting at i (0-based)",
    )
    p_an.add_argument(
        "--strict", action="store_true",
        help="exit nonzero if any cell fails (default: only if all fail)",
    )
    p_an.add_argument("--profile", action="store_true", help="enable the observability layer")
    p_an.add_argument("--trace-out", default=None, help="JSONL span/event trace path (implies --profile)")
    p_an.add_argument("--metrics-out", default=None, help="metrics JSON export path (implies --profile)")
    p_an.add_argument("--report-dir", default=None, help="write report.md + report.json here (implies --profile)")
    p_an.add_argument("--bench-dir", default=None, help="write BENCH_<sha>.json here (implies --profile)")
    p_an.add_argument(
        "--live", action="store_true",
        help="stream live run status to stderr (TTY dashboard, or periodic "
             "log lines when not a TTY; implies --profile)",
    )
    p_an.add_argument(
        "--metrics-port", type=_port, default=None, metavar="PORT",
        help="serve Prometheus /metrics on 127.0.0.1:PORT during the run "
             "(0 = pick a free port; implies --profile)",
    )
    p_an.add_argument(
        "--anomaly-threshold", type=_multiple, default=None,
        help="flag a cell as a straggler when its wall time exceeds this "
             "multiple of the cost-model expectation (default: 4.0)",
    )
    p_an.add_argument(
        "--log-out", default=None, metavar="LOG.jsonl",
        help="structured JSON log (rotating) with run/cell correlation ids "
             "for the scheduler and live view",
    )

    p_rep = sub.add_parser("report", help="render a report from an existing JSONL trace")
    p_rep.add_argument("--trace", required=True, help="JSONL event trace to read")
    p_rep.add_argument("--report-dir", default=DEFAULT_REPORT_DIR)
    p_rep.add_argument("--bench-dir", default=None)

    p_tr = sub.add_parser(
        "trace", help="post-mortem analytics over a JSONL trace or run journal"
    )
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)

    def add_trace_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("trace", help="JSONL trace file, run-journal file, or journal directory")
        p.add_argument("--strict", action="store_true",
                       help="fail on malformed interior JSONL lines instead of skipping them")

    p_sum = tr_sub.add_parser("summary", help="run overview: critical path, stages, attribution")
    add_trace_source(p_sum)
    p_sum.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p_sum.add_argument("--top", type=int, default=5, help="entries per table")

    p_cp = tr_sub.add_parser("critical-path", help="heaviest span chain through the run")
    add_trace_source(p_cp)
    p_cp.add_argument(
        # hfast.obs.analytics.CRITICAL_PATH_WEIGHTS, spelled out so that
        # building the parser does not import the analytics layer.
        "--weight", choices=("wall", "cost"), default="wall",
        help="edge weight: measured wall time, or the analytic cost model "
             "(deterministic across backends and machines)",
    )
    p_cp.add_argument("--per-cell", action="store_true", help="one path per cell instead of the run path")
    p_cp.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_fl = tr_sub.add_parser("flame", help="flamegraph export from per-span self times")
    add_trace_source(p_fl)
    p_fl.add_argument(
        "--format", choices=("folded", "speedscope"), default="folded",
        help="folded stacks for flamegraph.pl, or speedscope JSON",
    )
    p_fl.add_argument("--out", default=None, help="write here instead of stdout")

    p_ga = tr_sub.add_parser("gantt", help="ASCII timeline of cell execution windows")
    add_trace_source(p_ga)
    p_ga.add_argument("--width", type=int, default=60, help="timeline width in characters")

    p_di = tr_sub.add_parser("diff", help="stage/cell wall-time deltas between two runs")
    p_di.add_argument("trace_a", help="baseline trace (A)")
    p_di.add_argument("trace_b", help="comparison trace (B)")
    p_di.add_argument("--strict", action="store_true",
                      help="fail on malformed interior JSONL lines instead of skipping them")
    p_di.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_sv = sub.add_parser("serve", help="run the analysis-as-a-service HTTP daemon")
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=_port, default=8348, help="0 binds an ephemeral port")
    p_sv.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p_sv.add_argument(
        "--serve-dir", default=".hfast_serve",
        help="service state root (results/, jobs/ ledger, journal/)",
    )
    p_sv.add_argument(
        "--max-running", type=int, default=2,
        help="jobs executing concurrently; more wait in the queue",
    )
    p_sv.add_argument(
        "--queue-limit", type=int, default=8,
        help="queued jobs beyond --max-running before submissions get 429",
    )
    p_sv.add_argument(
        "--workers", type=int, default=1,
        help="pipeline workers per job; N>1 runs jobs under the stealing scheduler",
    )
    p_sv.add_argument(
        "--job-scheduler", choices=SCHEDULERS, default="stealing",
        help="scheduler each job runs under; stealing journals progress so "
             "interrupted jobs resume after a daemon restart",
    )
    p_sv.add_argument(
        "--trace-out", default=None,
        help="unified JSONL trace: every job's spans graft under a serve_job root",
    )
    p_sv.add_argument(
        "--bench-dir", default=None,
        help="BENCH_*.json directory for the jobs' cost model (default: none)",
    )
    p_sv.add_argument(
        "--no-store", action="store_true",
        help="do not write pipeline cache misses back to --cache-dir",
    )
    p_sv.add_argument(
        "--store-max-bytes", type=int, default=None, metavar="N",
        help="LRU byte budget for the result store: writes past it evict "
             "the least-recently-served artifacts (default: unbounded)",
    )
    p_sv.add_argument(
        "--heartbeat-interval", type=float, default=2.0, metavar="S",
        help="seconds between heartbeat events on /v1/events (<= 0 disables)",
    )

    p_se = sub.add_parser(
        "search", help="design-space search over the temporal interconnect evaluator"
    )
    p_se.add_argument("--app", required=True, help="application workload to evaluate against")
    p_se.add_argument("--scale", type=int, required=True, help="rank count for the workload")
    p_se.add_argument(
        "--circuits", type=_csv_ints, default=None,
        help="comma-separated circuits-per-node values to search",
    )
    p_se.add_argument(
        "--reconfig-costs", type=_csv_floats, default=None,
        help="comma-separated reconfiguration costs (seconds) to search",
    )
    p_se.add_argument(
        "--timesteps", type=_csv_ints, default=None,
        help="comma-separated traffic-slice counts to search (1 = static)",
    )
    p_se.add_argument(
        "--strategy", choices=("grid", "evolution"), default="grid",
        help="exhaustive grid, or seeded evolutionary search over the space",
    )
    p_se.add_argument("--seed", type=int, default=0, help="search seed (sampling + mutation)")
    p_se.add_argument(
        "--population", type=int, default=8, help="evolution: candidates per generation"
    )
    p_se.add_argument("--generations", type=int, default=3, help="evolution: generation count")
    p_se.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p_se.add_argument("--no-store", action="store_true", help="do not write cache misses back")
    p_se.add_argument(
        "--timing-seed", type=int, default=DEFAULT_TIMING_SEED,
        help="seed for the deterministic LogGP timing model",
    )
    _add_exec_flags(p_se, "candidate")
    p_se.add_argument(
        "--out", default=None, metavar="FRONTIER.json",
        help="write the canonical frontier artifact here (byte-identical "
             "across scheduler backends for a fixed spec)",
    )
    p_se.add_argument("--profile", action="store_true", help="enable the observability layer")
    p_se.add_argument(
        "--trace-out", default=None,
        help="JSONL trace: per-candidate spans graft under a dse_search root (implies --profile)",
    )
    p_se.add_argument(
        "--report-dir", default=None,
        help="write report.md + report.json (with the Design-space frontier "
             "section) here (implies --profile)",
    )
    p_se.add_argument("--bench-dir", default=None, help="BENCH_*.json directory for the cost model")
    p_se.add_argument(
        "--strict", action="store_true",
        help="exit nonzero if any candidate evaluation failed "
             "(default: only if all failed)",
    )

    p_apps = sub.add_parser("apps", help="list known apps and cached traces")
    p_apps.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)

    p_obs = sub.add_parser("obs", help="read structured logs post-mortem")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_otl = obs_sub.add_parser(
        "tail", help="read a structured log or trace stream (rotated siblings included)"
    )
    p_otl.add_argument("path", help="structured log / JSONL trace path")
    p_otl.add_argument("-n", type=_count, default=None, metavar="N",
                       help="only the last N records")
    p_otl.add_argument("--level", choices=("debug", "info", "warning", "error"),
                       default=None, help="only records at this level")
    p_otl.add_argument("--event", default=None, help="only records with this event name")
    return parser


def _cmd_analyze(args: argparse.Namespace, argv: list[str]) -> int:
    apps = args.apps or available_apps()
    if args.scales:
        scales = {app: list(args.scales) for app in apps}
    else:
        scales = discover_scales(ReproCache(args.cache_dir, readonly=True), apps)
    # Checked here, before any output opens; run_pipeline rebuilds the
    # same spec from these inputs.
    try:
        spec = RunSpec.build(
            cells=tuple((c.app, c.nranks) for c in build_cells(apps, scales)),
            overrides={},
            timing_seed=args.timing_seed,
            config={
                "circuits_per_node": args.circuits,
                "timesteps": args.timesteps,
                "reconfig_cost": args.reconfig_cost,
            },
        )
        options = _exec_options(args)
    except SpecError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiling = bool(
        args.profile or args.trace_out or args.metrics_out or args.report_dir
        or args.bench_dir or args.live or args.metrics_port is not None
    )
    obs = _observability(args, profiling)

    if args.log_out:
        from hfast.obs.logs import configure_logging

        configure_logging(args.log_out)

    # A profiled run scores its cells with one anomaly detector, which the
    # live view also uses to flag cells still running.
    detector = None
    if profiling:
        from hfast.obs.anomaly import AnomalyDetector

        kwargs = {} if args.anomaly_threshold is None else {"threshold": args.anomaly_threshold}
        detector = AnomalyDetector.from_bench_dir(options.bench_dir, **kwargs)

    # Live telemetry side-channels: an event bus feeding the status view,
    # and/or a background /metrics endpoint scraping the live registry.
    bus = live_view = metrics_server = None
    if args.live:
        from hfast.obs.live import LiveView
        from hfast.obs.stream import EventBus

        bus = EventBus()
        live_view = LiveView(detector=detector)
        bus.subscribe(live_view.handle)
        live_view.start()
    if args.metrics_port is not None:
        from hfast.obs.prom import MetricsServer, render_registry

        metrics_server = MetricsServer(
            lambda: render_registry(obs.metrics), port=args.metrics_port
        ).start()
        print(
            f"metrics endpoint: http://127.0.0.1:{metrics_server.port}/metrics",
            file=sys.stderr,
        )

    # Only the stealing scheduler keeps a journal, so only it can fail to
    # resume one.
    resume_errors: tuple[type[Exception], ...] = ()
    if options.scheduler == "stealing":
        from hfast.sched.journal import JournalError

        resume_errors = (JournalError,)
    try:
        out = run_pipeline(
            apps=apps,
            scales=scales,
            cache_dir=args.cache_dir,
            obs=obs,
            config=spec.config,
            store=not args.no_store,
            argv=argv,
            shard=args.shard,
            timing_seed=spec.timing_seed,
            options=options,
            bus=bus,
            anomaly=detector,
        )
    except CacheValidationError as exc:
        print(f"error: cache validation failed: {exc}", file=sys.stderr)
        return 1
    except resume_errors as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return 1
    finally:
        if live_view is not None:
            live_view.stop()
        if metrics_server is not None:
            metrics_server.stop()
        if args.log_out:
            from hfast.obs.logs import reset_logging

            reset_logging()

    for res in out["results"]:
        ic = res["interconnect"]
        tmp = res["interconnect_temporal"]
        tim = res["timing"]
        print(
            f"{res['app']:>8s} p{res['nranks']:<4d} "
            f"bytes={res['total_bytes']:>14,d} "
            f"maxdeg={res['topology']['max_degree']:>3d} "
            f"coverage={ic['coverage']:.3f} speedup={ic['speedup']:.2f}x "
            f"tcov={tmp['coverage']:.3f} reconf={tmp['n_reconfigs']:>3d} "
            f"comm={tim['pct_comm']:.1f}%"
        )

    _print_sched(out["manifest"].get("scheduler") or {})

    if profiling:
        if args.metrics_out:
            obs.metrics.write_json(args.metrics_out)
            print(f"metrics: {args.metrics_out}")
        _write_report(obs.events, args.report_dir, args.bench_dir)
        if args.trace_out:
            print(f"trace: {args.trace_out}")
    obs.close()

    for a in out.get("anomalies") or []:
        print(
            f"anomaly: {a['cell']} {a['kind']}: {a['wall_s']:.3f}s vs "
            f"expected {a['expected_s']:.3f}s ({a['ratio']}x)",
            file=sys.stderr,
        )

    cells = out["manifest"].get("cells") or []
    failed = [c for c in cells if not c["ok"]]
    # A retry that succeeded is informational, never an error: the cell's
    # result is in the output and --strict must not trip on it.
    for c in cells:
        if c["ok"] and c.get("attempts", 1) > 1:
            print(
                f"note: cell {c['app']}_p{c['nranks']} succeeded after "
                f"{c['attempts']} attempts",
                file=sys.stderr,
            )
    for c in failed:
        print(f"error: cell {c['app']}_p{c['nranks']} failed: {c['error']}", file=sys.stderr)
    if failed and (args.strict or len(failed) == len(cells)):
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from hfast.obs import analytics

    # Tolerant loader: a trace truncated mid-line (crashed run) still
    # renders a report from everything that made it to disk.
    try:
        events = analytics.load_events(args.trace)
    except analytics.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_report(events, args.report_dir, args.bench_dir)
    return 0


def _load_tree(source: str, strict: bool) -> TraceTree:
    from hfast.obs import analytics

    tree = analytics.TraceTree.load(source, strict=strict)
    if tree.empty:
        raise analytics.TraceError(f"{source}: no span events in trace")
    return tree


def _cmd_trace(args: argparse.Namespace) -> int:
    from hfast.obs import analytics

    try:
        if args.trace_command == "summary":
            tree = _load_tree(args.trace, args.strict)
            doc = analytics.summarize(tree, top=args.top)
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
                return 0
            print(
                f"{doc['cells']} cells / {doc['spans']} spans, "
                f"total wall {doc['total_wall_s']:.3f}s"
                + (f", scheduler {doc['scheduler']}" if doc.get("scheduler") else "")
            )
            if doc["failed_cells"]:
                print(f"failed cells: {', '.join(doc['failed_cells'])}")
            if doc["anomalies"]:
                counts = ", ".join(f"{k}={v}" for k, v in sorted(doc["anomalies"].items()))
                print(f"anomalies: {counts}")
            print("\ncritical path:")
            for e in doc["critical_path"]:
                print(f"  {'  ' * e['depth']}{e['label']}  {e['wall_s']:.4f}s")
            print("\ntop stages by self time:")
            for st in doc["stages"]:
                print(
                    f"  {st['stage']:<24s} x{st['calls']:<4d} "
                    f"self {st['self_s']:.4f}s ({st['pct_self']:.1f}%)"
                )
            attr = doc.get("attribution")
            if attr:
                util = f"{attr['utilization']:.0%}" if attr["utilization"] is not None else "n/a"
                print(
                    f"\nscheduler attribution: {len(attr['lanes'])} lane(s), "
                    f"utilization {util}, queue-wait share {attr['queue_wait_share']:.0%}, "
                    f"retry-exec {attr['total_retry_exec_s']:.3f}s"
                )
            return 0
        if args.trace_command == "critical-path":
            tree = _load_tree(args.trace, args.strict)
            if args.per_cell:
                paths = analytics.cell_critical_paths(tree, weight=args.weight)
                if args.json:
                    print(json.dumps(paths, indent=2, sort_keys=True))
                    return 0
                for cell, path in paths.items():
                    print(f"{cell}:")
                    for e in path:
                        print(f"  {'  ' * e['depth']}{e['label']}  weight={e['weight']:.4f}")
                return 0
            path = analytics.critical_path(tree, weight=args.weight)
            if args.json:
                print(json.dumps(path, indent=2, sort_keys=True))
                return 0
            for e in path:
                flag = f"  ERROR: {e['error']}" if e.get("error") else ""
                print(
                    f"{'  ' * e['depth']}{e['label']}  "
                    f"weight={e['weight']:.4f} wall={e['wall_s']:.4f}s{flag}"
                )
            return 0
        if args.trace_command == "flame":
            from hfast.obs.flame import folded_stacks, speedscope_doc

            tree = _load_tree(args.trace, args.strict)
            if args.format == "speedscope":
                text = json.dumps(speedscope_doc(tree), indent=2, sort_keys=True) + "\n"
            else:
                text = folded_stacks(tree)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(f"flame: {args.out}", file=sys.stderr)
            else:
                sys.stdout.write(text)
            return 0
        if args.trace_command == "gantt":
            tree = _load_tree(args.trace, args.strict)
            print(analytics.render_gantt(tree, width=args.width))
            return 0
        if args.trace_command == "diff":
            tree_a = _load_tree(args.trace_a, args.strict)
            tree_b = _load_tree(args.trace_b, args.strict)
            doc = analytics.diff_traces(tree_a, tree_b)
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
                return 0
            delta = doc["wall_delta_pct"]
            print(
                f"total wall: {doc['a_wall_s']:.3f}s -> {doc['b_wall_s']:.3f}s"
                + (f" ({delta:+.1f}%)" if delta is not None else "")
            )
            if doc["a_critical_path"] != doc["b_critical_path"]:
                print("critical path changed:")
                print(f"  A: {' > '.join(doc['a_critical_path'])}")
                print(f"  B: {' > '.join(doc['b_critical_path'])}")
            print("\nper-cell wall deltas:")
            for c in doc["cells"]:
                a = f"{c['a_wall_s']:.4f}" if c["a_wall_s"] is not None else "-"
                b = f"{c['b_wall_s']:.4f}" if c["b_wall_s"] is not None else "-"
                d = f" ({c['delta_pct']:+.1f}%)" if c["delta_pct"] is not None else ""
                print(f"  {c['cell']:<16s} {a} -> {b}{d}")
            return 0
    except analytics.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    # Lazy import: the serve package pulls in asyncio machinery no other
    # subcommand needs.
    from hfast.serve.daemon import ServeConfig, run_serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        serve_dir=args.serve_dir,
        max_running=args.max_running,
        queue_limit=args.queue_limit,
        workers=args.workers,
        scheduler=_scheduler(args.job_scheduler, args.workers),
        trace_out=args.trace_out,
        store=not args.no_store,
        bench_dir=args.bench_dir,
        store_max_bytes=args.store_max_bytes,
        heartbeat_interval=args.heartbeat_interval,
    )
    try:
        # The options the service runs every job under, checked before it
        # starts: a refusal is an error line, not a traceback.
        ExecOptions(scheduler=config.scheduler, workers=config.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_serve(config)


def _cmd_search(args: argparse.Namespace, argv: list[str]) -> int:
    # Lazy import: the DSE package is only needed by this subcommand.
    from hfast.dse.search import SearchSpec, SearchSpecError, frontier_bytes, run_search
    from hfast.dse.space import SearchSpace, SpaceValidationError
    from hfast.sched.journal import JournalError

    try:
        options = _exec_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiling = bool(args.profile or args.trace_out or args.report_dir or args.bench_dir)
    obs = _observability(args, profiling)

    space_kwargs = {}
    if args.circuits is not None:
        space_kwargs["circuits"] = tuple(args.circuits)
    if args.reconfig_costs is not None:
        space_kwargs["reconfig_costs"] = tuple(args.reconfig_costs)
    if args.timesteps is not None:
        space_kwargs["timesteps"] = tuple(args.timesteps)
    try:
        spec = SearchSpec(
            app=args.app,
            nranks=args.scale,
            space=SearchSpace(**space_kwargs),
            strategy=args.strategy,
            seed=args.seed,
            population=args.population,
            generations=args.generations,
            timing_seed=args.timing_seed,
        )
    except (SpaceValidationError, SearchSpecError) as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        out = run_search(
            spec,
            cache_dir=args.cache_dir,
            obs=obs,
            store=not args.no_store,
            argv=argv,
            options=options,
        )
    except CacheValidationError as exc:
        print(f"error: cache validation failed: {exc}", file=sys.stderr)
        return 1
    except JournalError as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return 1

    frontier = out["frontier"]
    print(
        f"search {frontier['search_key'][:12]}: {spec.app} p{spec.nranks} "
        f"{spec.strategy} seed={spec.seed} -> "
        f"{frontier['evaluated']} evaluated, {len(frontier['frontier'])} on frontier, "
        f"{frontier['dominated']} dominated, {len(frontier['failed'])} failed"
    )
    for p in frontier["frontier"]:
        cand, objs = p["candidate"], p["objectives"]
        print(
            f"  {p['id']} circuits={cand['circuits_per_node']:<3d} "
            f"reconfig={cand['reconfig_cost']:<8g} "
            f"steps={cand['timesteps']:<3d} "
            f"coverage={objs['coverage']:.3f} packet={objs['packet_bytes']:,d}B "
            f"reconf_s={objs['reconfig_s']:g} cost={objs['eval_cost']:.1f}"
        )
    _print_sched(out["sched"] or {})

    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(frontier_bytes(frontier))
        print(f"frontier: {args.out}")

    if profiling:
        _write_report(obs.events, args.report_dir, args.bench_dir)
        if args.trace_out:
            print(f"trace: {args.trace_out}")
    obs.close()

    failed = frontier["failed"]
    for f in failed:
        print(f"error: candidate {f['id']} failed: {f['error']}", file=sys.stderr)
    if failed and (args.strict or frontier["evaluated"] == 0):
        return 1
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    from hfast.timing import APP_PARAMS

    cache = ReproCache(args.cache_dir, readonly=True)
    scales = discover_scales(cache, available_apps())
    listing = {
        app: {
            "description": APPS[app].description,
            "cached_scales": scales[app],
            "loggp": APP_PARAMS[app].to_dict(),
        }
        for app in available_apps()
    }
    print(json.dumps(listing, indent=2))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    # ``tail`` is the one obs command; it needs none of the pipeline.
    from hfast.obs.logs import read_log_records

    try:
        records = read_log_records(args.path, level=args.level)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.event:
        records = [r for r in records if r.get("event") == args.event]
    if args.n is not None:
        records = records[max(0, len(records) - args.n):]
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args, argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "search":
        return _cmd_search(args, argv)
    if args.command == "apps":
        return _cmd_apps(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
