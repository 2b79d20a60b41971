"""Repro-cache: content-addressed storage of synthesized traces.

Entries live in ``.repro_cache/`` and are named
``{app}_p{nranks}_{key}.cols`` where ``key`` is the first 12 hex chars of
the sha256 of the canonical JSON of ``{app, nranks, overrides}``.

The on-disk schema is format 5: one file per key holding the trace's
:class:`~hfast.records.RecordBatch` columns exactly as stored:

- an 8-byte little-endian header length;
- the header, canonical JSON: format, app, nranks, overrides, the timing
  descriptor, region, the sorted ``calls`` table that ``call_code``
  indexes, ``call_totals``, and ``columns``, a ``[name, dtype, length]``
  entry per column in storage order (``rank``, ``call_code``, ``size``,
  ``peer``, ``count`` and, on timed traces,
  ``total_time``/``min_time``/``max_time``). Dtypes come from an
  allowlist: ``|i1``, ``<i2``, ``<i4`` or ``<i8`` for the integer
  columns, ``<f8`` for the times;
- each column at the next 8-byte boundary after zero padding. The file
  ends with the last column, so equal traces store as equal bytes.

``store`` writes an entry through one :func:`~hfast.atomic.atomic_write`.
``load`` reads it with one ``read`` and builds each column as a
read-only ``np.frombuffer`` view of that buffer. Before any byte is read
as a column it checks the header, the column table (the required
columns and no others, in order, of one length, with allowed dtypes),
the exact file size and the padding. One pass per column then checks
the values: non-negative (NaN fails), ``rank`` and ``peer`` below
``nranks`` and ``call_code`` inside a sorted, duplicate-free calls
table, times finite and ``min_time <= max_time``; the header needs a
timing descriptor with ``model`` and ``seed``, and stored
``call_totals`` equal to the per-call sum of ``count``. Any failure
raises :class:`CacheValidationError` naming the path, and ``store`` runs
the same checks before it writes.

The cache is a memo of synthesis: every entry is a trace that
:func:`~hfast.apps.synthesize` made. Files of older formats under an
entry's name (format 4's ``.npz``, the JSON documents of formats 2 and
3) are neither read nor listed: their key misses, and the re-synthesized
trace is stored beside them. A ``.cols`` entry whose header names another
integer ``format`` misses too, and a store-on run replaces it, so a
``CACHE_FORMAT`` bump invalidates every stored entry. A hit whose timing
descriptor is not the model's at the requested seed is re-timed.

Analysis results do not depend on the cache's bytes — a warm run equals
the cold run that stored its traces — so the served result key's
``SPEC_FORMAT`` does not move with the cache format.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Mapping

import numpy as np

from hfast.atomic import atomic_write
from hfast.obs.profile import profiled
from hfast.records import RecordBatch, Trace
from hfast.timing import DEFAULT_TIMING_SEED, TimingModel, apply_timing

CACHE_FORMAT = 5
#: Suffix of a format-5 entry.
SUFFIX = ".cols"
DEFAULT_CACHE_DIR = ".repro_cache"

_INT_COLUMNS = ("rank", "call_code", "size", "peer", "count")
_TIME_COLUMNS = ("total_time", "min_time", "max_time")
_INT_DTYPES = ("|i1", "<i2", "<i4", "<i8")
_HEADER_KEYS = ("app", "call_totals", "calls", "columns", "format", "nranks", "overrides",
                "region", "timing")
#: Bytes in the header-length prefix, and the alignment of every column.
_WORD = 8

class CacheValidationError(ValueError):
    """A cache entry failed validation."""

    def __init__(self, path: str | os.PathLike | None, message: str):
        self.path = str(path) if path is not None else "<memory>"
        super().__init__(f"{self.path}: {message}")


def cache_key(app: str, nranks: int, overrides: dict[str, Any] | None = None) -> str:
    """Stable 12-hex-char key for an (app, nranks, overrides) request."""
    payload = json.dumps(
        {"app": app, "nranks": nranks, "overrides": overrides or {}},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def cache_path(
    cache_dir: str | os.PathLike,
    app: str,
    nranks: int,
    overrides: dict[str, Any] | None = None,
) -> Path:
    """The format-5 entry of a key."""
    return Path(cache_dir) / f"{app}_p{nranks}_{cache_key(app, nranks, overrides)}{SUFFIX}"


@dataclass
class CacheStats:
    """Hit/miss bookkeeping surfaced in the run manifest."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    validation_failures: int = 0
    entries: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "validation_failures": self.validation_failures,
            "entries": list(self.entries),
        }


def _check_header(path: Path, header: Any) -> tuple[list[tuple[str, np.dtype]], int]:
    """Check the header's keys, types and column table; return the
    columns' names and dtypes in storage order, and their length. The
    columns of a timed entry (one with a timing descriptor or any time
    column) include all three time columns."""
    if not isinstance(header, dict):
        raise CacheValidationError(path, "header must be a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CacheValidationError(path, f"header missing required key(s) {missing}")
    if header["format"] != CACHE_FORMAT:
        raise CacheValidationError(
            path, f"unsupported format version {header['format']!r} (expected {CACHE_FORMAT})"
        )
    nranks = header["nranks"]
    if not isinstance(nranks, int) or isinstance(nranks, bool) or nranks <= 0:
        raise CacheValidationError(path, f"header.nranks must be a positive int, got {nranks!r}")
    for key, kind in (("app", str), ("region", str), ("overrides", dict), ("call_totals", dict)):
        if not isinstance(header[key], kind):
            raise CacheValidationError(path, f"header.{key} must be a {kind.__name__}")
    calls = header["calls"]
    if not isinstance(calls, list) or not all(isinstance(c, str) for c in calls):
        raise CacheValidationError(path, "header.calls must be a list of call names")
    if calls != sorted(set(calls)):
        raise CacheValidationError(
            path, f"header.calls must be sorted and free of duplicates, got {calls!r}"
        )
    timing = header["timing"]
    if timing is not None:
        if not isinstance(timing, dict):
            raise CacheValidationError(path, "header.timing must be an object or null")
        for key in ("model", "seed"):
            if key not in timing:
                raise CacheValidationError(path, f"header.timing missing required key '{key}'")
    table = header["columns"]
    if not isinstance(table, list):
        raise CacheValidationError(path, "header.columns must be a list")
    for i, entry in enumerate(table):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise CacheValidationError(
                path, f"header.columns[{i}] must be a [name, dtype, length] entry, got {entry!r}"
            )
    names = [entry[0] for entry in table]
    timed = timing is not None or any(c in names for c in _TIME_COLUMNS)
    columns = list(_INT_COLUMNS + (_TIME_COLUMNS if timed else ()))
    missing, unexpected = sorted(set(columns) - set(names)), sorted(set(names) - set(columns))
    if missing:
        raise CacheValidationError(path, f"missing required column(s) {missing}")
    if unexpected:
        raise CacheValidationError(path, f"unexpected column(s) {unexpected}")
    if names != columns:
        raise CacheValidationError(path, f"columns must be stored once each, in the order {columns}")
    n = table[0][2]
    for name, dtype, length in table:
        if name in _TIME_COLUMNS and dtype != "<f8":
            raise CacheValidationError(path, f"{name} must be float64 ('<f8'), got {dtype!r}")
        if name in _INT_COLUMNS and dtype not in _INT_DTYPES:
            raise CacheValidationError(
                path, f"{name} must have an integer dtype {_INT_DTYPES}, got {dtype!r}"
            )
        if not isinstance(length, int) or isinstance(length, bool) or length < 0:
            raise CacheValidationError(path, f"{name} length must be a non-negative int, got {length!r}")
        if length != n:
            raise CacheValidationError(path, f"{name} has {length} rows, rank has {n}")
    return [(name, np.dtype(dtype)) for name, dtype, _ in table], n


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _check_values(path: Path, header: dict[str, Any], cols: Mapping[str, np.ndarray]) -> None:
    """Check the columns' values, reading each integer column once and
    each time column twice. Only a failed check looks for the first bad
    row."""
    if not len(cols["rank"]):
        return
    nranks, ncalls = header["nranks"], len(header["calls"])
    bounds = {"rank": (nranks, f"nranks={nranks}"), "peer": (nranks, f"nranks={nranks}"),
              "call_code": (ncalls, f"a calls table of {ncalls}")}
    for name in _INT_COLUMNS:
        col = cols[name]
        # Through an unsigned view a negative value reads as 2**(bits-1)
        # or more, so one maximum bounds the column on both sides.
        limit = 1 << (8 * col.itemsize - 1)
        bound, what = bounds.get(name, (limit, ""))
        if col.view(col.dtype.str.replace("i", "u")).max() >= min(bound, limit):
            i = _first((col < 0) | (col >= bound))
            if col[i] < 0:
                raise CacheValidationError(
                    path, f"{name}[{i}] must be non-negative, got {col[i].item()!r}"
                )
            raise CacheValidationError(path, f"{name}[{i}]={col[i].item()} out of range for {what}")
    if "total_time" in cols:
        total, tmin, tmax = cols["total_time"], cols["min_time"], cols["max_time"]
        # ``not x >= 0`` and ``not x < inf`` also catch NaN, which compares
        # false. ``0 <= min_time <= max_time < inf`` bounds both columns.
        if not (total.min() >= 0 and total.max() < np.inf and tmin.min() >= 0
                and tmax.max() < np.inf and (tmin <= tmax).all()):
            for name in _TIME_COLUMNS:
                col = cols[name]
                if not col.min() >= 0:
                    i = _first(~(col >= 0))
                    raise CacheValidationError(
                        path, f"{name}[{i}] must be non-negative, got {col[i].item()!r}"
                    )
                if not col.max() < np.inf:
                    i = _first(~(col < np.inf))
                    raise CacheValidationError(
                        path, f"{name}[{i}] must be finite, got {col[i].item()!r}"
                    )
            i = _first(tmin > tmax)
            raise CacheValidationError(
                path, f"min_time[{i}]={tmin[i].item()!r} exceeds max_time={tmax[i].item()!r}"
            )


def _align(offset: int) -> int:
    return -(-offset // _WORD) * _WORD


def _read_entry(path: Path) -> Trace | None:
    """Load and validate a format-5 entry from one read of its file; the
    batch's columns are views of the bytes read. An entry whose header
    names another integer format is None, a miss."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CacheValidationError(path, f"unreadable entry: {exc}") from exc
    if len(raw) < _WORD:
        raise CacheValidationError(path, f"truncated: {len(raw)} bytes, no header length")
    pos = _WORD + int.from_bytes(raw[:_WORD], "little")
    if pos > len(raw):
        raise CacheValidationError(
            path, f"header length {pos - _WORD} runs past the end of the {len(raw)}-byte file"
        )
    try:
        header = json.loads(raw[_WORD:pos])
    except ValueError as exc:
        raise CacheValidationError(path, f"header is not JSON: {exc}") from exc
    fmt = header.get("format") if isinstance(header, dict) else CACHE_FORMAT
    if isinstance(fmt, int) and not isinstance(fmt, bool) and fmt != CACHE_FORMAT:
        return None
    table, n = _check_header(path, header)
    spans = []  # (name, dtype, end of what precedes the column, its start)
    for name, dtype in table:
        spans.append((name, dtype, pos, _align(pos)))
        pos = spans[-1][3] + n * dtype.itemsize
    if pos > len(raw):
        raise CacheValidationError(path, f"truncated: {len(raw)} bytes, the columns end at {pos}")
    if pos < len(raw):
        raise CacheValidationError(path, f"{len(raw) - pos} trailing byte(s) after the last column")
    cols = {}
    for name, dtype, end, start in spans:
        if raw[end:start] != bytes(start - end):
            raise CacheValidationError(path, f"non-zero padding before column {name}")
        cols[name] = np.frombuffer(raw, dtype=dtype, count=n, offset=start)
    _check_values(path, header, cols)
    batch = RecordBatch(*(cols[c] for c in _INT_COLUMNS), tuple(header["calls"]), header["region"])
    if "total_time" in cols:
        batch.set_times(*(cols[c] for c in _TIME_COLUMNS))
    if batch.call_totals != header["call_totals"]:
        raise CacheValidationError(path, "call_totals does not match the per-call sum of count")
    return Trace(header["app"], header["nranks"], overrides=header["overrides"], batch=batch,
                 timing=header["timing"])


def _write_entry(fh: BinaryIO, header: bytes, cols: Iterable[np.ndarray]) -> None:
    """Write the layout: header length, header, then each column at the
    next 8-byte boundary after zero padding."""
    fh.write(len(header).to_bytes(_WORD, "little"))
    fh.write(header)
    pos = _WORD + len(header)
    for col in cols:
        start = _align(pos)
        fh.write(bytes(start - pos))
        fh.write(col)
        pos = start + col.nbytes


class ReproCache:
    """Load/store traces keyed by (app, nranks, overrides)."""

    def __init__(self, cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR, readonly: bool = False):
        self.cache_dir = Path(cache_dir)
        self.readonly = readonly
        self.stats = CacheStats()

    def path_for(self, app: str, nranks: int, overrides: dict[str, Any] | None = None) -> Path:
        """The key's format-5 entry: what ``store`` writes and ``load``
        reads."""
        return cache_path(self.cache_dir, app, nranks, overrides)

    @profiled("cache_load")
    def load(
        self,
        app: str,
        nranks: int,
        overrides: dict[str, Any] | None = None,
        timing_seed: int | None = DEFAULT_TIMING_SEED,
    ) -> Trace | None:
        """Return the key's cached trace, or None on a miss (no entry, or
        one of another format).

        Unless ``timing_seed`` is None, the loaded trace is guaranteed to
        carry the timing model's times at that seed: an entry whose timing
        descriptor differs from the model's (untimed, another seed, other
        parameters) is deterministically re-timed in memory.
        """
        path = self.path_for(app, nranks, overrides)
        try:
            trace = _read_entry(path) if path.exists() else None
        except CacheValidationError:
            self.stats.validation_failures += 1
            raise
        if trace is None:
            self.stats.misses += 1
            self.stats.entries.append(
                {"app": app, "nranks": nranks, "outcome": "miss", "path": str(path)}
            )
            return None
        self.stats.hits += 1
        self.stats.entries.append(
            {"app": app, "nranks": nranks, "outcome": "hit", "path": str(path)}
        )
        if timing_seed is not None:
            model = TimingModel(app, nranks, seed=timing_seed)
            if trace.timing != model.to_dict():
                apply_timing(trace, seed=timing_seed)
        return trace

    @profiled("cache_store")
    def store(self, trace: Trace) -> Path:
        """Write ``trace`` as the key's format-5 entry."""
        path = self.path_for(trace.app, trace.nranks, trace.overrides)
        if self.readonly:
            return path
        batch = trace.ensure_batch()
        cols = {}
        for name in _INT_COLUMNS + (_TIME_COLUMNS if batch.has_times else ()):
            col = getattr(batch, name)
            # Contiguous and little-endian, as stored: no copy on a
            # little-endian host.
            cols[name] = np.ascontiguousarray(col, col.dtype.newbyteorder("<"))
        header = {
            "format": CACHE_FORMAT,
            "app": trace.app,
            "nranks": trace.nranks,
            "overrides": dict(trace.overrides),
            "timing": trace.timing,
            "region": batch.region,
            "calls": list(batch.calls),
            "call_totals": {},
            "columns": [[name, col.dtype.str, len(col)] for name, col in cols.items()],
        }
        _check_header(path, header)
        _check_values(path, header, cols)
        # Summed once the codes are known to index the calls table.
        header["call_totals"] = batch.call_totals
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Concurrent stores of one cell (say, two served jobs with
        # different timing seeds) each replace the entry whole.
        atomic_write(path, lambda fh: _write_entry(fh, raw, cols.values()))
        self.stats.stores += 1
        self.stats.entries.append(
            {
                "app": trace.app,
                "nranks": trace.nranks,
                "outcome": "store",
                "path": str(path),
            }
        )
        return path

    def list_entries(self) -> list[Path]:
        """The format-5 entries, sorted."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob(f"*{SUFFIX}"))
