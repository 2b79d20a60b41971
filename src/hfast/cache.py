"""Repro-cache: content-addressed storage of synthesized traces.

Entries live in ``.repro_cache/`` and are named
``{app}_p{nranks}_{key}.npz`` where ``key`` is the first 12 hex chars of
the sha256 of the canonical JSON of ``{app, nranks, overrides}``.

The on-disk schema is format 4: one uncompressed ``.npz`` (a zip of
``.npy`` members) per key, holding the trace's
:class:`~hfast.records.RecordBatch` columns exactly as stored — ``rank``,
``call_code``, ``size``, ``peer``, ``count`` and, on timed traces,
``total_time``/``min_time``/``max_time`` — plus one ``uint8`` member,
``meta``, with the canonical JSON metadata: format, app, nranks,
overrides, the timing descriptor, region, the sorted ``calls`` table that
``call_code`` indexes, and ``call_totals``. ``np.savez`` stamps every
member with zip's fixed 1980 date, so equal traces store as equal bytes.

Loading reads the file with ``np.load(..., allow_pickle=False)``, so no
member is ever unpickled, and builds the batch straight from the
columns. One vectorized pass keeps every check the per-record validator
makes: the required members and no others; 1-D columns of equal length;
integer dtypes for the integer columns and float64 for the times;
non-negative values; ``rank``/``peer`` below ``nranks``; ``call_code``
inside a sorted, duplicate-free calls table; ``min_time <= max_time``; a
timing descriptor with ``model`` and ``seed``; and stored ``call_totals``
equal to the per-call sum of ``count``. Any failure — a truncated or
non-zip file included — raises :class:`CacheValidationError` naming the
path.

Formats 2 and 3 were JSON documents with one object per record. They
are read-only now: ``load`` falls back to ``{app}_p{nranks}_{key}.json``
only when no ``.npz`` exists for the key (the committed seed corpus is
such documents), through the per-record :func:`validate_document` and
:meth:`hfast.records.Trace.from_document`. Format-2 documents carry no
timing; the deterministic LogGP model re-synthesizes it at load.

Analysis results do not depend on the cache's bytes — a warm run equals
the cold run that stored its traces — so the served result key's
``SPEC_FORMAT`` does not move with the cache format.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np
from numpy.lib.npyio import NpzFile

from hfast.atomic import atomic_write
from hfast.obs.profile import profiled
from hfast.records import RecordBatch, Trace
from hfast.timing import DEFAULT_TIMING_SEED, apply_timing

CACHE_FORMAT = 4
#: Read-only JSON document formats (``.json`` entries).
JSON_FORMATS = (2, 3)
DEFAULT_CACHE_DIR = ".repro_cache"

_INT_COLUMNS = ("rank", "call_code", "size", "peer", "count")
_TIME_COLUMNS = ("total_time", "min_time", "max_time")
_META = "meta"
_META_KEYS = ("app", "call_totals", "calls", "format", "nranks", "overrides", "region", "timing")
#: What reading a damaged ``.npz`` can raise: zip and ``.npy`` header
#: errors, truncation, and refused pickles.
_READ_ERRORS = (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile)

_REQUIRED_TOP_KEYS = ("format", "metadata", "call_totals", "records")
_REQUIRED_META_KEYS = ("app", "nranks", "overrides")
_REQUIRED_RECORD_KEYS = (
    "rank",
    "call",
    "size",
    "peer",
    "region",
    "count",
    "total_time",
    "min_time",
    "max_time",
)
_NON_NEGATIVE_RECORD_KEYS = ("rank", "size", "peer", "count", "total_time", "min_time", "max_time")


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
    """The format-4 entry of a key; its legacy JSON document is the same
    path with a ``.json`` suffix."""
    return Path(cache_dir) / f"{app}_p{nranks}_{cache_key(app, nranks, overrides)}.npz"


def validate_document(doc: Any, path: str | os.PathLike | None = None) -> None:
    """Validate a legacy format-2/3 JSON document, record by record."""
    if not isinstance(doc, dict):
        raise CacheValidationError(path, f"document must be an object, got {type(doc).__name__}")
    for key in _REQUIRED_TOP_KEYS:
        if key not in doc:
            raise CacheValidationError(path, f"missing required top-level key '{key}'")
    if doc["format"] not in JSON_FORMATS:
        raise CacheValidationError(
            path,
            f"unsupported format version {doc['format']!r} "
            f"(expected one of {JSON_FORMATS})",
        )
    meta = doc["metadata"]
    if not isinstance(meta, dict):
        raise CacheValidationError(path, "'metadata' must be an object")
    for key in _REQUIRED_META_KEYS:
        if key not in meta:
            raise CacheValidationError(path, f"metadata missing required key '{key}'")
    if doc["format"] >= 3:
        if "timing" not in meta:
            raise CacheValidationError(path, "format-3 metadata missing required key 'timing'")
        timing = meta["timing"]
        if timing is not None:
            if not isinstance(timing, dict):
                raise CacheValidationError(path, "metadata.timing must be an object or null")
            for key in ("model", "seed"):
                if key not in timing:
                    raise CacheValidationError(
                        path, f"metadata.timing missing required key '{key}'"
                    )
    nranks = meta["nranks"]
    if not isinstance(nranks, int) or nranks <= 0:
        raise CacheValidationError(path, f"metadata.nranks must be a positive int, got {nranks!r}")
    if not isinstance(doc["call_totals"], dict):
        raise CacheValidationError(path, "'call_totals' must be an object")
    records = doc["records"]
    if not isinstance(records, list):
        raise CacheValidationError(path, "'records' must be a list")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise CacheValidationError(path, f"records[{i}] must be an object")
        for key in _REQUIRED_RECORD_KEYS:
            if key not in rec:
                raise CacheValidationError(path, f"records[{i}] missing required field '{key}'")
        for key in _NON_NEGATIVE_RECORD_KEYS:
            value = rec[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise CacheValidationError(
                    path, f"records[{i}].{key} must be non-negative, got {value!r}"
                )
        for key in ("rank", "peer"):
            if rec[key] >= nranks:
                raise CacheValidationError(
                    path,
                    f"records[{i}].{key}={rec[key]} out of range for nranks={nranks}",
                )
        if rec["region"] != records[0]["region"]:
            raise CacheValidationError(
                path,
                f"records[{i}].region={rec['region']!r} differs from "
                f"records[0].region={records[0]['region']!r}; a document holds one region",
            )
        if rec["min_time"] > rec["max_time"]:
            raise CacheValidationError(
                path,
                f"records[{i}].min_time={rec['min_time']!r} exceeds "
                f"max_time={rec['max_time']!r}",
            )
    totals: dict[str, int] = {}
    for rec in records:
        totals[rec["call"]] = totals.get(rec["call"], 0) + rec["count"]
    if totals != doc["call_totals"]:
        raise CacheValidationError(
            path, "call_totals does not match the sum of record counts"
        )


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


def _decode_meta(path: Path, raw: Any) -> dict[str, Any]:
    """The ``meta`` member's JSON object, its keys and types checked."""
    if not isinstance(raw, np.ndarray) or raw.ndim != 1 or raw.dtype != np.uint8:
        raise CacheValidationError(path, f"member '{_META}' must be a 1-D uint8 array")
    try:
        meta = json.loads(raw.tobytes())
    except ValueError as exc:
        raise CacheValidationError(path, f"member '{_META}' is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CacheValidationError(path, f"member '{_META}' must hold a JSON object")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise CacheValidationError(path, f"meta missing required key(s) {missing}")
    if meta["format"] != CACHE_FORMAT:
        raise CacheValidationError(
            path, f"unsupported format version {meta['format']!r} (expected {CACHE_FORMAT})"
        )
    nranks = meta["nranks"]
    if not isinstance(nranks, int) or isinstance(nranks, bool) or nranks <= 0:
        raise CacheValidationError(path, f"meta.nranks must be a positive int, got {nranks!r}")
    for key, kind in (("app", str), ("region", str), ("overrides", dict), ("call_totals", dict)):
        if not isinstance(meta[key], kind):
            raise CacheValidationError(path, f"meta.{key} must be a {kind.__name__}")
    calls = meta["calls"]
    if not isinstance(calls, list) or not all(isinstance(c, str) for c in calls):
        raise CacheValidationError(path, "meta.calls must be a list of call names")
    if calls != sorted(set(calls)):
        raise CacheValidationError(
            path, f"meta.calls must be sorted and free of duplicates, got {calls!r}"
        )
    timing = meta["timing"]
    if timing is not None:
        if not isinstance(timing, dict):
            raise CacheValidationError(path, "meta.timing must be an object or null")
        for key in ("model", "seed"):
            if key not in timing:
                raise CacheValidationError(path, f"meta.timing missing required key '{key}'")
    return meta


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def _check_columns(path: Path, members: Mapping[str, Any], meta: dict[str, Any]) -> bool:
    """Check the column members in one vectorized pass; True on a timed
    entry. The columns of a timed entry (one with a timing descriptor or
    any time column) include all three time columns."""
    timed = meta["timing"] is not None or any(c in members for c in _TIME_COLUMNS)
    columns = _INT_COLUMNS + (_TIME_COLUMNS if timed else ())
    missing = sorted(set(columns) - set(members))
    if missing:
        raise CacheValidationError(path, f"missing required member(s) {missing}")
    unexpected = sorted(set(members) - set(columns) - {_META})
    if unexpected:
        raise CacheValidationError(path, f"unexpected member(s) {unexpected}")
    n = None
    for name in columns:
        col = members[name]
        if not isinstance(col, np.ndarray) or col.ndim != 1:
            raise CacheValidationError(path, f"member '{name}' must be a 1-D array")
        if name in _TIME_COLUMNS and col.dtype != np.float64:
            raise CacheValidationError(path, f"{name} must be float64, got {col.dtype}")
        if name in _INT_COLUMNS and col.dtype.kind not in "iu":
            raise CacheValidationError(path, f"{name} must have an integer dtype, got {col.dtype}")
        n = len(col) if n is None else n
        if len(col) != n:
            raise CacheValidationError(path, f"{name} has {len(col)} rows, rank has {n}")
        # ``not min >= 0`` also catches NaN, which compares false.
        if n and not col.min() >= 0:
            i = _first(~(col >= 0))
            raise CacheValidationError(
                path, f"{name}[{i}] must be non-negative, got {col[i].item()!r}"
            )
    nranks, ncalls = meta["nranks"], len(meta["calls"])
    for name, bound, what in (
        ("rank", nranks, f"nranks={nranks}"),
        ("peer", nranks, f"nranks={nranks}"),
        ("call_code", ncalls, f"a calls table of {ncalls}"),
    ):
        col = members[name]
        if n and col.max() >= bound:
            i = _first(col >= bound)
            raise CacheValidationError(
                path, f"{name}[{i}]={col[i].item()} out of range for {what}"
            )
    if timed and n:
        tmin, tmax = members["min_time"], members["max_time"]
        over = tmin > tmax
        if over.any():
            i = _first(over)
            raise CacheValidationError(
                path, f"min_time[{i}]={tmin[i].item()!r} exceeds max_time={tmax[i].item()!r}"
            )
    return timed


def _trace_from_members(path: Path, members: Mapping[str, Any]) -> Trace:
    """Validate a format-4 entry's members and build its trace."""
    if _META not in members:
        raise CacheValidationError(path, f"missing required member(s) ['{_META}']")
    meta = _decode_meta(path, members[_META])
    timed = _check_columns(path, members, meta)
    batch = RecordBatch(
        *(members[name] for name in _INT_COLUMNS),
        calls=tuple(meta["calls"]),
        region=meta["region"],
    )
    if timed:
        batch.set_times(*(members[name] for name in _TIME_COLUMNS))
    if batch.call_totals != meta["call_totals"]:
        raise CacheValidationError(path, "call_totals does not match the per-call sum of count")
    return Trace(
        app=meta["app"],
        nranks=meta["nranks"],
        overrides=meta["overrides"],
        batch=batch,
        timing=meta["timing"],
    )


def _entry_members(trace: Trace) -> dict[str, np.ndarray]:
    """The format-4 members of a trace, in the order they are stored."""
    batch = trace.ensure_batch()
    columns = _INT_COLUMNS + (_TIME_COLUMNS if batch.has_times else ())
    meta = {
        "format": CACHE_FORMAT,
        "app": trace.app,
        "nranks": trace.nranks,
        "overrides": dict(trace.overrides),
        "timing": trace.timing,
        "region": batch.region,
        "calls": list(batch.calls),
        "call_totals": batch.call_totals,
    }
    raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    members = {name: getattr(batch, name) for name in columns}
    members[_META] = np.frombuffer(raw, dtype=np.uint8)
    return members


def _read_entry(path: Path) -> Trace:
    """Load and validate a format-4 ``.npz`` entry; nothing is unpickled."""
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, NpzFile):
            raise ValueError("a bare .npy array, not an .npz archive")
        with npz:
            members = {name: npz[name] for name in npz.files}
    except _READ_ERRORS as exc:
        raise CacheValidationError(path, f"unreadable .npz entry: {exc}") from exc
    return _trace_from_members(path, members)


def _read_document(path: Path) -> Trace:
    """Load and validate a legacy format-2/3 JSON document."""
    try:
        doc = json.loads(path.read_bytes())
    except ValueError as exc:
        raise CacheValidationError(path, f"invalid JSON: {exc}") from exc
    validate_document(doc, path)
    return Trace.from_document(doc)


class ReproCache:
    """Load/store traces keyed by (app, nranks, overrides)."""

    def __init__(self, cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR, readonly: bool = False):
        self.cache_dir = Path(cache_dir)
        self.readonly = readonly
        self.stats = CacheStats()

    def path_for(self, app: str, nranks: int, overrides: dict[str, Any] | None = None) -> Path:
        """The key's format-4 entry: what ``store`` writes and ``load``
        reads first."""
        return cache_path(self.cache_dir, app, nranks, overrides)

    @profiled("cache_load")
    def load(
        self,
        app: str,
        nranks: int,
        overrides: dict[str, Any] | None = None,
        timing_seed: int | None = DEFAULT_TIMING_SEED,
    ) -> Trace | None:
        """Return the cached trace, or None on a miss.

        Reads the key's ``.npz`` entry, or its legacy JSON document when
        no ``.npz`` exists. Unless ``timing_seed`` is None, the loaded
        trace is guaranteed to carry timing at that seed: format-2
        documents (and entries timed at a different seed) are
        deterministically re-timed in memory.
        """
        path = self.path_for(app, nranks, overrides)
        if not path.exists() and path.with_suffix(".json").exists():
            path = path.with_suffix(".json")
        if not path.exists():
            self.stats.misses += 1
            self.stats.entries.append(
                {"app": app, "nranks": nranks, "outcome": "miss", "path": str(path)}
            )
            return None
        try:
            trace = _read_entry(path) if path.suffix == ".npz" else _read_document(path)
        except CacheValidationError:
            self.stats.validation_failures += 1
            raise
        self.stats.hits += 1
        self.stats.entries.append(
            {"app": app, "nranks": nranks, "outcome": "hit", "path": str(path)}
        )
        if timing_seed is not None and (
            trace.timing is None or trace.timing.get("seed") != timing_seed
        ):
            apply_timing(trace, seed=timing_seed)
        return trace

    @profiled("cache_store")
    def store(self, trace: Trace) -> Path:
        """Write ``trace`` as the key's format-4 entry (never JSON)."""
        path = self.path_for(trace.app, trace.nranks, trace.overrides)
        if self.readonly:
            return path
        members = _entry_members(trace)
        _trace_from_members(path, members)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Concurrent stores of one cell (say, two served jobs with
        # different timing seeds) each replace the entry whole.
        atomic_write(path, lambda fh: np.savez(fh, allow_pickle=False, **members))
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
        """One file per key, sorted: its ``.npz`` entry, or its legacy
        ``.json`` document when it has no ``.npz``."""
        if not self.cache_dir.is_dir():
            return []
        entries = {p.stem: p for p in self.cache_dir.glob("*.json")}
        entries.update((p.stem, p) for p in self.cache_dir.glob("*.npz"))
        return sorted(entries.values())
