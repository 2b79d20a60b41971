"""Prometheus text exposition for the metrics registry.

Renders a :class:`~hfast.obs.metrics.MetricsRegistry` in the Prometheus
text format (version 0.0.4): ``# TYPE`` comment lines, cumulative
``_bucket{le="..."}`` series ending in ``+Inf``, ``_sum``/``_count``
series. The registry's log2 histogram buckets map directly onto ``le``
edges — bucket counts just need cumulation since the registry stores
per-bucket (non-cumulative) counts. ``min``/``max`` have no native
Prometheus histogram series, so they export as companion gauges.

:class:`MetricsServer` serves ``/metrics`` from a daemon thread during a
run (``--metrics-port``). It scrapes a *live* registry that worker merges
mutate concurrently, so rendering retries on dictionary-changed-size
races rather than locking the hot path.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from hfast.obs.metrics import MetricsRegistry

PROM_PREFIX = "hfast_"
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str) -> str:
    """Sanitize a registry metric name into a legal Prometheus name."""
    sane = _NAME_BAD.sub("_", name)
    if sane and sane[0].isdigit():
        sane = "_" + sane
    return PROM_PREFIX + sane


def _fmt(value: Any) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a registry ``to_dict()`` snapshot as Prometheus text."""
    lines: list[str] = []
    for name, d in sorted(snapshot.items()):
        kind = d.get("type")
        pname = prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {_fmt(d['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_fmt(d['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for edge, cnt in sorted(
                ((int(e), c) for e, c in (d.get("buckets") or {}).items())
            ):
                cumulative += cnt
                lines.append(f'{pname}_bucket{{le="{_fmt(float(edge))}"}} {cumulative}')
            lines.append(f'{pname}_bucket{{le="+Inf"}} {d["count"]}')
            lines.append(f"{pname}_sum {_fmt(float(d['sum']))}")
            lines.append(f"{pname}_count {d['count']}")
            for agg in ("min", "max"):
                if d.get(agg) is not None:
                    lines.append(f"# TYPE {pname}_{agg} gauge")
                    lines.append(f"{pname}_{agg} {_fmt(float(d[agg]))}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_registry(registry: MetricsRegistry) -> str:
    """Render a live registry, retrying if a concurrent merge mutates it."""
    for _ in range(8):
        try:
            return render_prometheus(registry.to_dict())
        except RuntimeError:  # dict changed size during iteration
            continue
    return render_prometheus(dict(registry.to_dict()))


def render_registries(*registries: MetricsRegistry) -> str:
    """One exposition document over several live registries.

    The serve daemon keeps its service counters (admission, dedupe,
    cache hits) in one registry and the cumulative per-job pipeline
    metrics in another; a scrape must see both. Later registries win on
    name collisions — after :func:`prom_name` sanitization two distinct
    raw names can land on the same exposition name, and one series per
    name is a format invariant. Snapshots are taken with the same
    concurrent-mutation retry as :func:`render_registry`.
    """
    merged: dict[str, Any] = {}
    for registry in registries:
        for _ in range(8):
            try:
                merged.update(registry.to_dict())
                break
            except RuntimeError:  # dict changed size during iteration
                continue
        else:
            merged.update(dict(registry.to_dict()))
    return render_prometheus(merged)


# ---------------------------------------------------------------------------
# Parse side: enough of the exposition format to round-trip our own output.

def parse_prometheus(text: str) -> dict[str, Any]:
    """Parse exposition text back into ``{name: {type, ...}}`` structures.

    Supports exactly the subset the renderers emit; used by tests and
    the CI smoke scrape to prove the exposition is well-formed and
    lossless for counters/gauges (``{"type", "value"}``) and histogram
    count/sum/buckets. The one label is a histogram bucket's ``le``.
    """
    types: dict[str, str] = {}
    samples: dict[str, list[tuple[str | None, float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{le="([^"]*)"\})?\s+(\S+)$', line)
        if not m:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name, le, value = m.groups()
        samples.setdefault(name, []).append((le, float(value)))

    out: dict[str, Any] = {}
    for name, kind in types.items():
        if kind in ("counter", "gauge"):
            if name in samples:
                out[name] = {"type": kind, "value": samples[name][-1][1]}
        elif kind == "histogram":
            buckets: dict[str, int] = {}
            prev = 0
            for le, value in samples.get(name + "_bucket", []):
                if le == "+Inf":
                    continue
                count = int(value) - prev
                prev = int(value)
                if count:
                    buckets[str(int(float(le)))] = count
            out[name] = {
                "type": "histogram",
                "count": int(samples[name + "_count"][0][1]),
                "sum": samples[name + "_sum"][0][1],
                "buckets": buckets,
            }
    return out


def prometheus_projection(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Project a registry snapshot onto what the exposition can carry.

    Prometheus names are sanitized and values are floats; min/max/mean
    live outside the histogram proper. Comparing
    ``parse_prometheus(render_prometheus(s)) == prometheus_projection(s)``
    is the round-trip contract.
    """
    out: dict[str, Any] = {}
    for name, d in snapshot.items():
        kind = d.get("type")
        pname = prom_name(name)
        if kind in ("counter", "gauge"):
            out[pname] = {"type": kind, "value": float(d["value"])}
        elif kind == "histogram":
            out[pname] = {
                "type": "histogram",
                "count": int(d["count"]),
                "sum": float(d["sum"]),
                "buckets": {
                    str(int(e)): int(c)
                    for e, c in (d.get("buckets") or {}).items()
                    if int(c)
                },
            }
            # min/max export as companion gauges, so they parse back as such.
            for agg in ("min", "max"):
                if d.get(agg) is not None:
                    out[f"{pname}_{agg}"] = {"type": "gauge", "value": float(d[agg])}
    return out


# ---------------------------------------------------------------------------
# /metrics HTTP server


class MetricsServer:
    """Background ``/metrics`` endpoint for scrape-during-run telemetry.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    available as :attr:`port` after :meth:`start`. The handler calls
    ``render_fn`` per scrape, so it always reflects the current registry.
    """

    def __init__(
        self,
        render_fn: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._render = render_fn
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.port: int | None = None

    def start(self) -> "MetricsServer":
        render = self._render

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = render().encode("utf-8")
                except Exception:
                    self.send_error(500)
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not pollute the run's stdout/stderr

        self._httpd = ThreadingHTTPServer((self._host, self._requested_port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="hfast-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}/metrics"
