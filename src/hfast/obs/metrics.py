"""Metrics registry: counters, gauges, and log2-bucketed histograms.

Histograms use power-of-two buckets exactly like IPM's message-size
tables: bucket ``2^k`` holds observations in ``(2^(k-1), 2^k]``, with a
dedicated zero bucket. Exporters render the whole registry as a flat text
block or a JSON document.

A registry created with ``enabled=False`` hands out shared no-op
instruments so instrumented code pays only an attribute lookup.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np


def log2_bucket(value: int | float) -> int:
    """Upper edge of the power-of-two bucket containing value.

    0 -> 0; values in (2^(k-1), 2^k] -> 2^k.
    """
    if value < 0:
        raise ValueError(f"histogram values must be non-negative, got {value!r}")
    if value == 0:
        return 0
    if isinstance(value, int):
        return 1 << (value - 1).bit_length()
    edge = 1
    while edge < value:
        edge <<= 1
    return edge


def log2_bucket_array(values: np.ndarray) -> np.ndarray:
    """:func:`log2_bucket` over an array, as int64 bucket edges.

    ``np.frexp`` splits ``v = m * 2**e`` with ``m`` in ``[0.5, 1)``, so the
    edge is ``2**e`` — or ``2**(e - 1)`` when ``m`` is exactly 0.5, i.e.
    ``v`` is itself a power of two. Values in ``(0, 1]`` map to 1 and 0 to
    0, as in the scalar function. Integers must be below 2**53 (exact in
    float64) and edges below 2**63.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size and v.min() < 0:
        raise ValueError("histogram values must be non-negative")
    mant, exp = np.frexp(v)
    exp = np.where(mant == 0.5, exp - 1, exp)
    edges = np.left_shift(1, np.maximum(exp, 0).astype(np.int64))
    return np.where(v == 0, 0, edges)


class Counter:
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: int | float) -> None:
        self.value = v

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Log2-bucketed histogram with count/sum/min/max aggregates."""

    __slots__ = ("name", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: int | float, weight: int = 1) -> None:
        edge = log2_bucket(value)
        self.buckets[edge] = self.buckets.get(edge, 0) + weight
        self.count += weight
        self.sum += value * weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values: np.ndarray, weights: np.ndarray) -> None:
        """``observe(v, weight=w)`` for each pair in order, as array work.

        The state ends bit-for-bit where the loop leaves it: a zero weight
        still creates its bucket, ``min``/``max`` keep the values' Python
        type, and ``sum`` adds the products one at a time with a sequential
        ``cumsum`` (never pairwise). Each float64 product rounds as
        Python's does while values and weights are below 2**53, the bound
        :func:`log2_bucket_array` already requires.
        """
        v = np.asarray(values)
        if not v.size:
            return
        w = np.asarray(weights, dtype=np.int64)
        edges, inv = np.unique(log2_bucket_array(v), return_inverse=True)
        totals = np.zeros(edges.size, dtype=np.int64)
        np.add.at(totals, inv, w)
        for edge, n in zip(edges.tolist(), totals.tolist()):
            self.buckets[edge] = self.buckets.get(edge, 0) + n
        self.count += int(w.sum())
        terms = np.concatenate(([self.sum], v.astype(np.float64) * w))
        self.sum = float(np.cumsum(terms)[-1])
        lo, hi = v.min().item(), v.max().item()
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class _NoopInstrument:
    """Stands in for every instrument type when metrics are disabled."""

    __slots__ = ()
    name = "<noop>"
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0
    buckets: dict[int, int] = {}

    def inc(self, n: int | float = 1) -> None:
        pass

    def set(self, v: int | float) -> None:
        pass

    def observe(self, value: int | float, weight: int = 1) -> None:
        pass

    def observe_many(self, values: np.ndarray, weights: np.ndarray) -> None:
        pass

    def to_dict(self) -> dict[str, Any]:
        return {"type": "noop"}


_NOOP = _NoopInstrument()


class MetricsRegistry:
    """Get-or-create registry for named instruments."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, cls: type) -> Any:
        if not self.enabled:
            return _NOOP
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric '{name}' already registered as {type(inst).__name__}, "
                f"requested {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def to_dict(self) -> dict[str, Any]:
        return {name: inst.to_dict() for name, inst in sorted(self._instruments.items())}

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's ``to_dict`` export into this registry.

        The merge rule per instrument type: counters add, gauges take the
        snapshot's value, histograms combine buckets and aggregates. This
        is how per-cell worker metrics collapse into one run registry.
        """
        if not self.enabled:
            return
        for name, d in snapshot.items():
            kind = d.get("type")
            if kind == "counter":
                self.counter(name).inc(d["value"])
            elif kind == "gauge":
                self.gauge(name).set(d["value"])
            elif kind == "histogram":
                h = self.histogram(name)
                for edge, cnt in d.get("buckets", {}).items():
                    edge = int(edge)
                    h.buckets[edge] = h.buckets.get(edge, 0) + cnt
                h.count += d["count"]
                h.sum += d["sum"]
                for attr, pick in (("min", min), ("max", max)):
                    other = d.get(attr)
                    if other is not None:
                        cur = getattr(h, attr)
                        setattr(h, attr, other if cur is None else pick(cur, other))

    def to_text(self) -> str:
        """Flat, grep-friendly text export (one metric datum per line)."""
        lines = []
        for name, inst in sorted(self._instruments.items()):
            d = inst.to_dict()
            if d["type"] == "histogram":
                lines.append(f"{name}_count {d['count']}")
                lines.append(f"{name}_sum {d['sum']}")
                for edge, cnt in d["buckets"].items():
                    lines.append(f'{name}_bucket{{le="{edge}"}} {cnt}')
            else:
                lines.append(f"{name} {d['value']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_json(self, path: str | os.PathLike) -> None:
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
