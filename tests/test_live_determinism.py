"""Live telemetry is a strict side-channel.

The acceptance bar for ``--live`` / the event bus: merged trace events,
metrics, manifest, and report must be byte-identical with and without
live streaming — serial and stealing backends, fault injection included.
Wall-clock-derived material (timing fields, scheduler bookkeeping, and
the ``anomaly``/``sched_*`` event kinds) is outside the contract, exactly
as documented; everything else must not move by a byte.
"""

import io

from conftest import cache_digests
from hfast import cli
from hfast.obs.live import LiveView
from hfast.obs.profile import Observability
from hfast.obs.report import build_report
from hfast.obs.stream import EventBus
from hfast.pipeline import run_pipeline
from hfast.sched.faults import FAULT_ENV_VAR
from hfast.spec import ExecOptions
from test_fault_injection import SCHED_FIELDS, comparable
from test_parallel_determinism import normalize

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}

# Event kinds that are wall-clock-derived by construction and therefore
# excluded (like wall_s itself) from the byte-identity contract.
CLOCK_EVENTS = {"sched_task", "sched_worker", "anomaly", "cell_timing"}

# Per-span attempt tags are scheduler bookkeeping, like the cell-level
# "attempts" count the fault-injection tests already scrub.
SCRUB_FIELDS = SCHED_FIELDS | {"attempt"}


def scrub(node):
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items() if k not in SCRUB_FIELDS}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def trace_comparable(events):
    """Trace events minus timing fields, sched bookkeeping, clock kinds."""
    return [
        scrub(normalize(ev, strip_paths=True))
        for ev in events
        if ev.get("event") not in CLOCK_EVENTS
    ]


def metrics_comparable(metrics):
    """Registry snapshot minus the scheduler's own (timing-driven) series."""
    return {k: v for k, v in metrics.items() if not k.startswith("sched.")}


def run_sweep(cache_dir, live=False, **options):
    bus = view = None
    if live:
        bus = EventBus()
        view = LiveView(out=io.StringIO(), force_tty=False, log_interval=0.01)
        bus.subscribe(view.handle)
        view.start()
    obs = Observability(enabled=True)
    try:
        out = run_pipeline(
            apps=APPS, scales=SCALES, cache_dir=str(cache_dir), obs=obs,
            argv=["test"], options=ExecOptions(bench_dir=None, **options), bus=bus,
        )
    finally:
        if view is not None:
            view.stop()
    out["trace"] = trace_comparable(obs.events)
    out["metrics"] = metrics_comparable(obs.metrics.to_dict())
    out["report"] = build_report(obs.events)
    if live:
        assert bus.published > 0
        assert "live:" in view.out.getvalue()  # the view really consumed events
    return out


def assert_identical(a, b, dir_a, dir_b):
    assert a["results"] == b["results"]
    assert a["trace"] == b["trace"]
    assert a["metrics"] == b["metrics"]
    assert comparable(a) == comparable(b)
    assert scrub(normalize(a["manifest"], strip_paths=True)) == scrub(
        normalize(b["manifest"], strip_paths=True)
    )
    assert cache_digests(dir_a) == cache_digests(dir_b)


def test_live_serial_is_byte_identical_to_live_off(tmp_path):
    off = run_sweep(tmp_path / "off")
    on = run_sweep(tmp_path / "on", live=True)
    assert_identical(on, off, tmp_path / "on", tmp_path / "off")


def test_live_stealing_is_byte_identical_to_live_off(tmp_path):
    off = run_sweep(tmp_path / "off", scheduler="stealing", workers=4)
    on = run_sweep(tmp_path / "on", scheduler="stealing", workers=4, live=True)
    assert_identical(on, off, tmp_path / "on", tmp_path / "off")


def test_live_stealing_matches_serial_without_live(tmp_path):
    serial = run_sweep(tmp_path / "serial")
    stealing = run_sweep(tmp_path / "stealing", scheduler="stealing", workers=4, live=True)
    assert_identical(stealing, serial, tmp_path / "stealing", tmp_path / "serial")


def test_live_chaos_run_still_byte_identical(tmp_path, monkeypatch):
    """Streaming + fault injection together: a retried flaky cell under a
    live bus still reproduces the clean serial artifacts byte-for-byte."""
    serial = run_sweep(tmp_path / "serial")
    monkeypatch.setenv(FAULT_ENV_VAR, "flaky:gtc_p8:1")
    chaos = run_sweep(
        tmp_path / "chaos", scheduler="stealing", workers=2,
        retry_backoff=0.01, live=True,
    )
    assert chaos["manifest"]["failed_cells"] == []
    by_key = {f"{c['app']}_p{c['nranks']}": c for c in chaos["manifest"]["cells"]}
    assert by_key["gtc_p8"]["attempts"] == 2
    assert_identical(chaos, serial, tmp_path / "chaos", tmp_path / "serial")


def test_non_live_run_registers_no_channel_and_streams_nothing(tmp_path):
    from hfast.obs import stream

    obs = Observability(enabled=True)
    run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(tmp_path / "c"),
                 obs=obs, argv=["test"], options=ExecOptions(bench_dir=None))
    assert stream.worker_channel() is None
    # No live-only event kinds may reach the buffered trace.
    kinds = {e["event"] for e in obs.events}
    assert "cell_start" not in kinds and "cell_state" not in kinds
    assert "heartbeat" not in kinds and "run_start" not in kinds


# ---------------------------------------------------------------------------
# CLI smoke: --live + --metrics-port on a non-TTY


def test_cli_live_non_tty_smoke(tmp_path, capsys):
    rc = cli.main([
        "analyze", "--apps", "gtc,cactus", "--scales", "8",
        "--cache-dir", str(tmp_path / "cache"),
        "--report-dir", str(tmp_path / "reports"),
        "--live", "--metrics-port", "0",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "live:" in captured.err  # non-TTY degradation: summary log lines
    assert "metrics endpoint: http://127.0.0.1:" in captured.err
    assert (tmp_path / "reports" / "report.md").is_file()


def test_cli_live_matches_plain_run_artifacts(tmp_path, capsys):
    common = ["analyze", "--apps", "gtc,cactus", "--scales", "8", "--profile"]
    assert cli.main(common + ["--cache-dir", str(tmp_path / "plain")]) == 0
    assert cli.main(common + ["--cache-dir", str(tmp_path / "live"), "--live"]) == 0
    capsys.readouterr()
    assert cache_digests(tmp_path / "plain") == cache_digests(tmp_path / "live")
