"""Declared run inputs (:class:`RunSpec`, :class:`InterconnectConfig`) and
how a run executes (:class:`ExecOptions`).

Every input that can change an analysis result is a field here: the
(app, nranks) cells, the trace generators' ``overrides``, the timing
model's ``timing_seed`` and the :class:`InterconnectConfig` the cells are
evaluated under. A spec is checked once, when it is built, and
:class:`SpecError` names every bad field at once.

The spec owns what is derived from those inputs:

- the defaults (the dataclass fields);
- the canonical document and its sha256 :attr:`RunSpec.key`, which
  addresses served results;
- the flat one-cell wire form that ``POST /v1/jobs`` accepts and the
  job ledger stores (:meth:`RunSpec.from_wire` / :meth:`RunSpec.to_wire`);
- the payload each cell is sent (:meth:`RunSpec.cell_payload`), the
  same for analysis runs and design-space candidates.

The run journal's fingerprint is the canonical document plus where the
results land and which cells run
(:func:`hfast.sched.journal.build_fingerprint`). A field added here thus
reaches the result key, the fingerprint and the cell together;
``tests/test_spec.py`` changes each field in turn and requires all three
to move.

:class:`ExecOptions` holds the other half: the scheduler, retry, journal
and cost-model settings that decide how cells run but never what they
compute. It is the one place their rules are checked.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

from hfast.apps import APPS
from hfast.timing import DEFAULT_TIMING_SEED

#: Canonical-document schema version; bump on any change to the layout
#: below, because the version participates in the sha256 key. A change
#: to the result a spec addresses bumps it too, so a store written before
#: the change cannot serve the old result under the new code (3: the
#: ``top_peers`` tie-break became lowest peer id; 4: served jobs ran
#: without their ``overrides`` while keying and echoing them, so format-3
#: entries with overrides hold the results of the defaults; 5:
#: ``APP_PARAMS`` took the fitted ``compute_step_s``, which moves
#: ``compute_time_s``, ``wall_time_s`` and ``pct_comm``, and a cell whose
#: cache dir held a committed JSON seed document analyzed that document,
#: where it now analyzes the synthesized trace).
SPEC_FORMAT = 5

MAX_NRANKS = 1 << 20
MAX_TIMESTEPS = 4096
SCHEDULERS = ("static", "stealing")


class SpecError(ValueError):
    """Rejected run inputs; ``errors`` holds one message per bad field
    (cells that fail alike share one)."""

    def __init__(self, errors: list[str]):
        self.errors = list(dict.fromkeys(errors))
        super().__init__("; ".join(self.errors))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_int(
    name: str, value: Any, errors: list[str], lo: int | None = None, hi: int | None = None
) -> bool:
    """Record an error unless ``value`` is an integer (not a bool) in [lo, hi]."""
    if _is_int(value) and (lo is None or value >= lo) and (hi is None or value <= hi):
        return True
    if hi is not None:
        want = f"an integer in [{lo}, {hi}]"
    elif lo is not None:
        want = f"an integer >= {lo}"
    else:
        want = "an integer"
    errors.append(f"{name}: expected {want}, got {value!r}")
    return False


def check_number(name: str, value: Any, errors: list[str], positive: bool) -> bool:
    """Record an error unless ``value`` is a finite number above (or at) zero."""
    if _is_finite_number(value) and (value > 0 if positive else value >= 0):
        return True
    sign = "positive" if positive else "non-negative"
    errors.append(f"{name}: expected a {sign} finite number, got {value!r}")
    return False


def check_cell(app: Any, nranks: Any, errors: list[str]) -> None:
    """Record an error for an unknown app or an out-of-range rank count."""
    if not isinstance(app, str) or app not in APPS:
        errors.append(f"app: unknown app {app!r} (expected one of {sorted(APPS)})")
    check_int("nranks", nranks, errors, 1, MAX_NRANKS)


def content_key(doc: dict[str, Any]) -> str:
    """sha256 hex of a document's canonical JSON (sorted keys, no spaces)."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class InterconnectConfig:
    """The hybrid interconnect a run evaluates, checked when built."""

    circuits_per_node: int = 4
    circuit_bandwidth: float = 10e9  # bytes/s per provisioned circuit
    packet_bandwidth: float = 1e9  # bytes/s shared packet fabric per node
    circuit_latency: float = 1e-6  # s, source-routed circuit
    packet_latency: float = 10e-6  # s, store-and-forward packet path
    timesteps: int = 4  # temporal evaluator: number of traffic slices
    reconfig_cost: float = 1e-3  # s per circuit established after t=0 (MEMS-scale)
    slice_seed: int = 0  # seed for the deterministic traffic slicer

    def __post_init__(self) -> None:
        """Reject out-of-range parameters, naming every bad field at once.

        Float fields are stored as floats, so ``10**10`` and ``1e10``
        give one result document as well as one key.
        """
        errors: list[str] = []
        check_int("circuits_per_node", self.circuits_per_node, errors, lo=0)
        for name in ("circuit_bandwidth", "packet_bandwidth", "circuit_latency", "packet_latency"):
            check_number(name, getattr(self, name), errors, positive=True)
        check_int("timesteps", self.timesteps, errors, 1, MAX_TIMESTEPS)
        check_number("reconfig_cost", self.reconfig_cost, errors, positive=False)
        check_int("slice_seed", self.slice_seed, errors)
        if errors:
            raise SpecError(errors)
        for f in fields(self):
            if isinstance(f.default, float):
                setattr(self, f.name, float(getattr(self, f.name)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_CONFIG_FIELDS = tuple(f.name for f in fields(InterconnectConfig))
_WIRE_FIELDS = ("app", "nranks", "timing_seed", "overrides", *_CONFIG_FIELDS)


@dataclass(frozen=True)
class RunSpec:
    """Every input that can change a run's results: cells, overrides,
    timing seed and interconnect config."""

    cells: tuple[tuple[str, int], ...]
    overrides: dict[str, Any] = field(default_factory=dict)
    timing_seed: int = DEFAULT_TIMING_SEED
    config: InterconnectConfig = field(default_factory=InterconnectConfig)

    def __post_init__(self) -> None:
        errors: list[str] = []
        for app, nranks in self.cells:
            check_cell(app, nranks, errors)
        check_int("timing_seed", self.timing_seed, errors)
        if not isinstance(self.config, InterconnectConfig):
            errors.append(f"config: expected an InterconnectConfig, got {self.config!r}")
        if not isinstance(self.overrides, dict):
            errors.append(f"overrides: expected an object, got {type(self.overrides).__name__}")
        else:
            for k, v in self.overrides.items():
                if not isinstance(k, str):
                    errors.append(f"overrides: keys must be strings, got {k!r}")
                elif v is not None and not isinstance(v, str) and not _is_finite_number(v):
                    errors.append(
                        f"overrides[{k!r}]: values must be null, strings, or finite numbers, "
                        f"got {v!r}"
                    )
        if errors:
            raise SpecError(errors)
        # A private copy: the caller's dict must not change a built spec.
        object.__setattr__(self, "overrides", dict(self.overrides))

    @classmethod
    def build(
        cls,
        cells: tuple[tuple[str, int], ...],
        overrides: Any,
        timing_seed: Any,
        config: dict[str, Any],
    ) -> "RunSpec":
        """A spec from plain values, ``config`` holding InterconnectConfig
        fields; the config's problems and the spec's are raised together."""
        errors: list[str] = []
        interconnect = InterconnectConfig()
        try:
            interconnect = InterconnectConfig(**config)
        except SpecError as exc:
            errors.extend(exc.errors)
        try:
            spec = cls(cells, overrides, timing_seed, interconnect)
        except SpecError as exc:
            errors.extend(exc.errors)
        if errors:
            raise SpecError(errors)
        return spec

    @classmethod
    def from_wire(cls, payload: Any) -> "RunSpec":
        """Check a flat one-cell document (``POST /v1/jobs``, the job ledger).

        Absent fields take their defaults; every problem is collected
        before :class:`SpecError` is raised.
        """
        if not isinstance(payload, dict):
            raise SpecError([f"job spec must be a JSON object, got {type(payload).__name__}"])
        errors: list[str] = []
        unknown = sorted(map(str, set(payload) - set(_WIRE_FIELDS)))
        if unknown:
            errors.append(f"unknown field(s): {', '.join(unknown)}")
        missing = [name for name in ("app", "nranks") if name not in payload]
        errors.extend(f"{name}: required field is missing" for name in missing)
        try:
            spec = cls.build(
                cells=() if missing else ((payload["app"], payload["nranks"]),),
                overrides=payload.get("overrides", {}),
                timing_seed=payload.get("timing_seed", DEFAULT_TIMING_SEED),
                config={k: payload[k] for k in _CONFIG_FIELDS if k in payload},
            )
        except SpecError as exc:
            errors.extend(exc.errors)
        if errors:
            raise SpecError(errors)
        return spec

    def to_wire(self) -> dict[str, Any]:
        """The flat form :meth:`from_wire` reads back, every field explicit
        (one-cell specs only)."""
        ((app, nranks),) = self.cells
        return {
            "app": app,
            "nranks": nranks,
            "timing_seed": self.timing_seed,
            "overrides": dict(self.overrides),
            **self.config.to_dict(),
        }

    def canonical_doc(self) -> dict[str, Any]:
        """The document :attr:`key` hashes: every field, defaults filled."""
        return {
            "format": SPEC_FORMAT,
            "cells": [[app, nranks] for app, nranks in self.cells],
            "overrides": dict(self.overrides),
            "timing_seed": self.timing_seed,
            "interconnect": self.config.to_dict(),
        }

    @property
    def key(self) -> str:
        """Content address: sha256 hex of the canonical JSON document."""
        return content_key(self.canonical_doc())

    @property
    def cell_key(self) -> str:
        return ",".join(f"{app}_p{nranks}" for app, nranks in self.cells)

    def cell_payload(
        self,
        cell: Any,
        cache_dir: str,
        store: bool,
        profiled: bool,
    ) -> dict[str, Any]:
        """What a worker needs to run ``cell`` (an ``app``/``nranks``/
        ``index`` record) under this spec: its inputs, where traces are
        cached, and whether it buffers a trace (``profiled``)."""
        return {
            "app": cell.app,
            "nranks": cell.nranks,
            "index": cell.index,
            "cache_dir": cache_dir,
            "config": self.config,
            "store": store,
            "timing_seed": self.timing_seed,
            "overrides": dict(self.overrides),
            "profiled": profiled,
        }


@dataclass(frozen=True)
class ExecOptions:
    """How a run's cells execute, never what they compute.

    ``static`` runs cells serially in process, the reference; ``stealing``
    runs them on the work-stealing scheduler (:mod:`hfast.sched`), with
    retries, heartbeats and a run journal under ``journal_dir`` (default:
    beside the cache), named ``run_id`` (default: fresh) or resuming
    ``resume``. ``bench_dir``'s ``BENCH_*.json`` snapshots calibrate the
    cost model and the anomaly detector.
    """

    scheduler: str = "static"
    workers: int = 1
    max_retries: int = 2
    heartbeat_timeout: float = 30.0
    retry_backoff: float = 0.05
    journal_dir: str | None = None
    resume: str | None = None
    run_id: str | None = None
    bench_dir: str | None = "."

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler '{self.scheduler}' (expected one of {SCHEDULERS})"
            )
        for name, rule, ok in (
            ("workers", "at least 1", self.workers >= 1),
            ("max_retries", "at least 0", self.max_retries >= 0),
            # Each check states what must hold, so NaN fails it.
            ("heartbeat_timeout", "above 0", self.heartbeat_timeout > 0),
            ("retry_backoff", "at least 0", self.retry_backoff >= 0),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.resume is not None:
            self.require_stealing("resume")
        if self.workers > 1:
            self.require_stealing("workers > 1")

    def require_stealing(self, what: str) -> None:
        """Refuse ``what`` (an option only the stealing scheduler has)
        under the serial scheduler."""
        if self.scheduler != "stealing":
            raise ValueError(f"{what} requires scheduler='stealing'")
