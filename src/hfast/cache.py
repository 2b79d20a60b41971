"""Repro-cache: content-addressed storage of synthesized traces.

Cache files live in ``.repro_cache/`` and are named
``{app}_p{nranks}_{key}.json`` where ``key`` is the first 12 hex chars of
the sha256 of the canonical JSON of ``{app, nranks, overrides}``.

The on-disk schema is format 3: format 2 plus a ``metadata.timing``
descriptor and real per-record ``total_time``/``min_time``/``max_time``
values. Legacy format-2 documents (the seed corpus) still load through a
read shim — the deterministic LogGP model re-synthesizes their timing at
load time, so downstream analysis sees the same trace either way.

Every load runs the schema validator; a malformed file raises
:class:`CacheValidationError` naming the offending path and field. A
document's records share one region, so every loaded trace columnarizes
(:meth:`hfast.records.Trace.ensure_batch`).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hfast.atomic import atomic_write
from hfast.obs.profile import profiled
from hfast.records import Trace
from hfast.timing import DEFAULT_TIMING_SEED, apply_timing

CACHE_FORMAT = 3
SUPPORTED_FORMATS = (2, 3)
DEFAULT_CACHE_DIR = ".repro_cache"

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
    """A cache document failed schema validation."""

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
    return Path(cache_dir) / f"{app}_p{nranks}_{cache_key(app, nranks, overrides)}.json"


def validate_document(doc: Any, path: str | os.PathLike | None = None) -> None:
    """Validate a format-3 (or legacy format-2) cache document."""
    if not isinstance(doc, dict):
        raise CacheValidationError(path, f"document must be an object, got {type(doc).__name__}")
    for key in _REQUIRED_TOP_KEYS:
        if key not in doc:
            raise CacheValidationError(path, f"missing required top-level key '{key}'")
    if doc["format"] not in SUPPORTED_FORMATS:
        raise CacheValidationError(
            path,
            f"unsupported format version {doc['format']!r} "
            f"(expected one of {SUPPORTED_FORMATS})",
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


def _read_json_mmap(path: Path) -> Any:
    """Parse a JSON file through a read-only memory map.

    Large corpus documents (a 32K-rank trace is hundreds of MB) are read
    straight out of the page cache in one mapped extent — no buffered
    read loop, no intermediate text decode (``json.loads`` takes the raw
    bytes). Empty files and filesystems that refuse to map (procfs, some
    network mounts) fall back to a plain read; JSON errors propagate
    unchanged so callers keep one error path.
    """
    with open(path, "rb") as fh:
        try:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                return json.loads(mm[:])
        except (ValueError, OSError) as exc:
            if isinstance(exc, json.JSONDecodeError):
                raise
            # mmap of an empty file raises ValueError; unmappable
            # filesystems raise OSError. Both degrade to a normal read.
            fh.seek(0)
            return json.loads(fh.read().decode("utf-8"))


class ReproCache:
    """Load/store traces keyed by (app, nranks, overrides)."""

    def __init__(self, cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR, readonly: bool = False):
        self.cache_dir = Path(cache_dir)
        self.readonly = readonly
        self.stats = CacheStats()

    def path_for(self, app: str, nranks: int, overrides: dict[str, Any] | None = None) -> Path:
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

        Unless ``timing_seed`` is None, the loaded trace is guaranteed to
        carry timing at that seed: legacy format-2 documents (and format-3
        documents timed at a different seed) are deterministically
        re-timed in memory — the read shim that keeps the seed corpus
        useful after the format bump.
        """
        path = self.path_for(app, nranks, overrides)
        if not path.exists():
            self.stats.misses += 1
            self.stats.entries.append(
                {"app": app, "nranks": nranks, "outcome": "miss", "path": str(path)}
            )
            return None
        try:
            doc = _read_json_mmap(path)
        except json.JSONDecodeError as exc:
            self.stats.validation_failures += 1
            raise CacheValidationError(path, f"invalid JSON: {exc}") from exc
        try:
            validate_document(doc, path)
        except CacheValidationError:
            self.stats.validation_failures += 1
            raise
        self.stats.hits += 1
        self.stats.entries.append(
            {"app": app, "nranks": nranks, "outcome": "hit", "path": str(path)}
        )
        trace = Trace.from_document(doc)
        if timing_seed is not None and (
            trace.timing is None or trace.timing.get("seed") != timing_seed
        ):
            apply_timing(trace, seed=timing_seed)
        return trace

    @profiled("cache_store")
    def store(self, trace: Trace) -> Path:
        path = self.path_for(trace.app, trace.nranks, trace.overrides)
        if self.readonly:
            return path
        doc = trace.to_document()
        validate_document(doc, path)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Concurrent stores of one cell (say, two served jobs with
        # different timing seeds) each replace the entry whole.
        atomic_write(path, lambda fh: json.dump(doc, fh))
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
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob("*.json"))
