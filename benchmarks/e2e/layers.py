"""Benchmark-side layer tracing: wrap each layer's public function.

Nothing inside ``src/`` is instrumented for this. :meth:`Tracer.install`
replaces each target *at the name its caller looks up* (for example
``hfast.pipeline.reduce_matrix``, which is what ``analyze_app`` calls), so
the wrapped calls are exactly the ones the pipeline makes. Spans are kept
in memory and handed back to the harness, which writes them out when the
run ends.

The tracer assumes one thread, which holds for the serial static
scheduler every traced workload uses.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Any, Callable


def vm_hwm_kb() -> int:
    """This process's peak resident set size, in KiB.

    Not ``ru_maxrss``: a child started by ``subprocess`` inherits its
    parent's high-water mark there, so a small child reads as large as the
    harness that started it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _load_counts(args: tuple, kwargs: dict, out: Any) -> dict[str, int]:
    if out is None:
        return {"hit": 0, "bytes": 0}
    path = args[0].path_for(out.app, out.nranks, out.overrides)
    return {"hit": 1, "bytes": os.path.getsize(path)}


def _store_counts(args: tuple, kwargs: dict, out: Any) -> dict[str, int]:
    return {"bytes": 0 if args[0].readonly else os.path.getsize(out)}


def _synth_counts(args: tuple, kwargs: dict, out: Any) -> dict[str, int]:
    return {"records": len(out.batch) if out.batch is not None else len(out.records)}


def _matrix_counts(args: tuple, kwargs: dict, out: Any) -> dict[str, int]:
    return {"nonzero_links": out.nonzero_links()}


def _match_counts(args: tuple, kwargs: dict, out: Any) -> dict[str, int]:
    return {"edges": len(args[0])}


def _rematch_counts(args: tuple, kwargs: dict, out: Any) -> dict[str, int]:
    return {"edges": len(args[1])}


#: (module[:Class], attribute, span name, counts). Several names can map
#: to one span name: ``evaluate_hybrid`` is looked up by both the pipeline
#: and the temporal evaluator, and ``matcher.match`` covers the stateless
#: and the incremental matcher.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("hfast.pipeline", "run_pipeline", "pipeline.run", None),
    ("hfast.pipeline", "analyze_app", "pipeline.analyze_app", None),
    ("hfast.pipeline", "synthesize", "apps.synthesize", _synth_counts),
    ("hfast.apps", "apply_timing", "timing.apply_timing", None),
    ("hfast.cache", "apply_timing", "timing.apply_timing", None),
    ("hfast.cache:ReproCache", "load", "cache.load", _load_counts),
    ("hfast.cache:ReproCache", "store", "cache.store", _store_counts),
    ("hfast.records:Trace", "ensure_batch", "records.ensure_batch", None),
    ("hfast.pipeline", "reduce_matrix", "matrix.reduce_matrix", _matrix_counts),
    ("hfast.pipeline", "analyze_topology", "topology.analyze_topology", None),
    ("hfast.pipeline", "evaluate_hybrid", "interconnect.evaluate_hybrid", None),
    ("hfast.interconnect", "evaluate_hybrid", "interconnect.evaluate_hybrid", None),
    ("hfast.pipeline", "evaluate_temporal", "interconnect.evaluate_temporal", None),
    ("hfast.interconnect", "slice_edge_volumes", "interconnect.slice_edge_volumes", None),
    ("hfast.interconnect", "match_edges", "matcher.match", _match_counts),
    ("hfast.matcher:IncrementalMatcher", "rematch", "matcher.match", _rematch_counts),
)


class Tracer:
    """Collects one span per wrapped call: name, start, end, parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        #: Time spent in the wrappers' own bookkeeping, outside the
        #: wrapped calls: the direct cost of tracing.
        self.cost_s = 0.0
        self._stack: list[int] = []
        self._started = 0
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for target, attr, name, counts in TARGETS:
            module, _, cls = target.partition(":")
            owner: Any = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, counts))

    def _wrap(self, fn: Callable, name: str, counts: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entered = time.perf_counter()
            self._started += 1
            span_id = self._started
            parent_id = self._stack[-1] if self._stack else None
            depth = len(self._stack)
            self._stack.append(span_id)
            rss0 = vm_hwm_kb()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rss1 = vm_hwm_kb()
                self._stack.pop()
            attrs: dict[str, Any] = {
                "run_id": self.run_id,
                "start_s": t0 - self._t0,
                "end_s": t1 - self._t0,
                "rss_hwm_delta_kb": rss1 - rss0,
            }
            if counts is not None:
                attrs.update(counts(args, kwargs, out))
            self.spans.append(
                {
                    "event": "span",
                    "name": name,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "depth": depth,
                    "wall_s": t1 - t0,
                    "peak_rss_kb": rss1,
                    "attrs": attrs,
                }
            )
            self.cost_s += (t0 - entered) + (time.perf_counter() - t1)
            return out

        return wrapper


def rollup(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, time_s (sum), self_s (minus wrapped children),
    rss_hwm_delta_kb, and the sum of every count attribute."""
    child_wall: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp["parent_id"] is not None:
            child_wall[sp["parent_id"]] += sp["wall_s"]
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        row = out.setdefault(sp["name"], defaultdict(float))
        row["calls"] += 1
        row["time_s"] += sp["wall_s"]
        row["self_s"] += sp["wall_s"] - child_wall[sp["span_id"]]
        for key, value in sp["attrs"].items():
            if key not in ("run_id", "start_s", "end_s"):
                row[key] += value
    return {name: dict(row) for name, row in out.items()}
