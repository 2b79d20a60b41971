"""Job specifications: validation, canonicalization, content addressing.

A submission to ``POST /v1/jobs`` names one (app, nranks) cell plus the
knobs that change its analysis output: trace overrides, the
deterministic timing seed, and the full interconnect configuration.
:func:`canonicalize` validates the request and maps it onto a
:class:`JobSpec` whose :attr:`JobSpec.key` is the sha256 of the
canonical JSON document — two submissions that differ only in field
order or in explicitly spelling out default values land on the same key
(and therefore the same cached result), while any field that actually
changes the output changes the key.

The spec's ``overrides`` feed the same ``{app, nranks, overrides}``
sha256 key the repro-cache has always used (:func:`hfast.cache.cache_key`),
so the service's result addressing is an extension of the existing
content-addressed trace cache, not a parallel scheme.

``POST /v1/sweeps`` submissions go through :func:`canonicalize_sweep`
instead: the payload names a design-space search (workload + space +
strategy + seed), validation delegates to the DSE layer's own
:class:`~hfast.dse.space.SearchSpace` /
:class:`~hfast.dse.search.SearchSpec` validators (errors merged into
one :class:`JobValidationError`), and the resulting
:class:`SweepSpec`'s key IS the search's content key — so the stored
frontier artifact is addressed identically whether it came through the
daemon or a direct ``hfast search`` run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from hfast.apps import APPS
from hfast.cache import cache_key
from hfast.interconnect import InterconnectConfig, _is_finite_number, _is_int
from hfast.timing import DEFAULT_TIMING_SEED

#: Canonical-document schema version; bump on any change to the layout
#: below, because the version participates in the sha256 key. A change
#: to the result a spec addresses bumps it too, so a store written before
#: the change cannot serve the old result under the new code (3: the
#: ``top_peers`` tie-break became lowest peer id).
SPEC_FORMAT = 3

MAX_NRANKS = 1 << 20
MAX_TIMESTEPS = 4096

_DEFAULT_CONFIG = InterconnectConfig()

#: field -> (default, kind); ``kind`` drives validation + normalization.
FIELDS: dict[str, tuple[Any, str]] = {
    "app": (None, "app"),
    "nranks": (None, "nranks"),
    "timing_seed": (DEFAULT_TIMING_SEED, "int"),
    "overrides": ({}, "overrides"),
    "circuits_per_node": (_DEFAULT_CONFIG.circuits_per_node, "nonneg_int"),
    "circuit_bandwidth": (_DEFAULT_CONFIG.circuit_bandwidth, "pos_float"),
    "packet_bandwidth": (_DEFAULT_CONFIG.packet_bandwidth, "pos_float"),
    "circuit_latency": (_DEFAULT_CONFIG.circuit_latency, "pos_float"),
    "packet_latency": (_DEFAULT_CONFIG.packet_latency, "pos_float"),
    "timesteps": (_DEFAULT_CONFIG.timesteps, "timesteps"),
    "reconfig_cost": (_DEFAULT_CONFIG.reconfig_cost, "nonneg_float"),
    "slice_seed": (_DEFAULT_CONFIG.slice_seed, "int"),
}


class JobValidationError(ValueError):
    """A job submission failed validation; ``errors`` lists every problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class JobSpec:
    """One validated, fully-defaulted analysis request."""

    app: str
    nranks: int
    timing_seed: int
    overrides: tuple[tuple[str, Any], ...]
    circuits_per_node: int
    circuit_bandwidth: float
    packet_bandwidth: float
    circuit_latency: float
    packet_latency: float
    timesteps: int
    reconfig_cost: float
    slice_seed: int

    @property
    def cell_key(self) -> str:
        return f"{self.app}_p{self.nranks}"

    def overrides_dict(self) -> dict[str, Any]:
        return dict(self.overrides)

    def interconnect_config(self) -> InterconnectConfig:
        return InterconnectConfig(
            circuits_per_node=self.circuits_per_node,
            circuit_bandwidth=self.circuit_bandwidth,
            packet_bandwidth=self.packet_bandwidth,
            circuit_latency=self.circuit_latency,
            packet_latency=self.packet_latency,
            timesteps=self.timesteps,
            reconfig_cost=self.reconfig_cost,
            slice_seed=self.slice_seed,
        )

    def canonical_doc(self) -> dict[str, Any]:
        """Fully-defaulted, normalized document the result key hashes."""
        return {
            "format": SPEC_FORMAT,
            "app": self.app,
            "nranks": self.nranks,
            "timing_seed": self.timing_seed,
            "overrides": self.overrides_dict(),
            "interconnect": {
                "circuits_per_node": self.circuits_per_node,
                "circuit_bandwidth": float(self.circuit_bandwidth),
                "packet_bandwidth": float(self.packet_bandwidth),
                "circuit_latency": float(self.circuit_latency),
                "packet_latency": float(self.packet_latency),
                "timesteps": self.timesteps,
                "reconfig_cost": float(self.reconfig_cost),
                "slice_seed": self.slice_seed,
            },
        }

    @property
    def key(self) -> str:
        """Content address: sha256 hex of the canonical JSON document."""
        payload = json.dumps(self.canonical_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def trace_cache_key(self) -> str:
        """The underlying repro-cache key this job's trace lives under."""
        return cache_key(self.app, self.nranks, self.overrides_dict())

    def payload(self) -> dict[str, Any]:
        """Flat request payload that round-trips through :func:`canonicalize`.

        The job ledger persists this form so daemon restart recovery can
        rebuild the exact spec (and therefore the exact key) from disk.
        """
        doc = self.canonical_doc()
        flat = {k: v for k, v in doc.items() if k not in ("format", "interconnect")}
        flat.update(doc["interconnect"])
        return flat


def _validate_field(name: str, kind: str, value: Any, errors: list[str]) -> Any:
    if kind == "app":
        if not isinstance(value, str) or value not in APPS:
            errors.append(
                f"app: unknown app {value!r} (expected one of {sorted(APPS)})"
            )
            return None
        return value
    if kind == "nranks":
        if not _is_int(value) or not 1 <= value <= MAX_NRANKS:
            errors.append(f"nranks: expected an integer in [1, {MAX_NRANKS}], got {value!r}")
            return None
        return value
    if kind == "timesteps":
        if not _is_int(value) or not 1 <= value <= MAX_TIMESTEPS:
            errors.append(
                f"timesteps: expected an integer in [1, {MAX_TIMESTEPS}], got {value!r}"
            )
            return None
        return value
    if kind == "int":
        if not _is_int(value):
            errors.append(f"{name}: expected an integer, got {value!r}")
            return None
        return value
    if kind == "nonneg_int":
        if not _is_int(value) or value < 0:
            errors.append(f"{name}: expected a non-negative integer, got {value!r}")
            return None
        return value
    if kind == "pos_float":
        if not _is_finite_number(value) or value <= 0:
            errors.append(f"{name}: expected a positive finite number, got {value!r}")
            return None
        return float(value)
    if kind == "nonneg_float":
        if not _is_finite_number(value) or value < 0:
            errors.append(f"{name}: expected a non-negative finite number, got {value!r}")
            return None
        return float(value)
    if kind == "overrides":
        if not isinstance(value, dict):
            errors.append(f"overrides: expected an object, got {type(value).__name__}")
            return None
        clean: dict[str, Any] = {}
        for k in sorted(value):
            v = value[k]
            if not isinstance(k, str):
                errors.append(f"overrides: keys must be strings, got {k!r}")
                continue
            if v is not None and not isinstance(v, str) and not _is_finite_number(v):
                errors.append(
                    f"overrides[{k!r}]: values must be null, strings, or finite numbers, "
                    f"got {v!r}"
                )
                continue
            clean[k] = v
        return tuple(sorted(clean.items()))
    raise AssertionError(f"unhandled field kind {kind!r}")  # pragma: no cover


#: Top-level fields a sweep submission may carry; everything nested under
#: ``space`` is validated by :class:`hfast.dse.space.SearchSpace`.
SWEEP_FIELDS = (
    "app",
    "nranks",
    "space",
    "strategy",
    "seed",
    "population",
    "generations",
    "timing_seed",
)


@dataclass(frozen=True)
class SweepSpec:
    """One validated design-space sweep request.

    A thin service-facing wrapper around the DSE layer's
    :class:`~hfast.dse.search.SearchSpec`: the spec owns validation and
    content addressing, this class adapts it to the daemon's job
    protocol (``key``/``cell_key``/``payload``).
    """

    search: Any  # hfast.dse.search.SearchSpec

    @property
    def key(self) -> str:
        """The search's content key — shared with ``hfast search``."""
        return self.search.key

    @property
    def cell_key(self) -> str:
        return f"{self.search.app}_p{self.search.nranks}"

    def payload(self) -> dict[str, Any]:
        """Flat payload that round-trips through :func:`canonicalize_sweep`."""
        doc = self.search.canonical_doc()
        return {k: v for k, v in doc.items() if k != "format"}


def canonicalize_sweep(payload: Any) -> SweepSpec:
    """Validate a sweep submission and return its canonical :class:`SweepSpec`.

    Like :func:`canonicalize`, every problem is collected before raising.
    Space and spec validation are delegated to the DSE layer so the
    service accepts exactly what ``hfast search`` accepts.
    """
    # Lazy import: only sweep submissions pull in the DSE package.
    from hfast.dse.search import SearchSpec, SearchSpecError
    from hfast.dse.space import SearchSpace, SpaceValidationError

    errors: list[str] = []
    if not isinstance(payload, dict):
        raise JobValidationError(
            [f"sweep spec must be a JSON object, got {type(payload).__name__}"]
        )
    unknown = sorted(set(payload) - set(SWEEP_FIELDS))
    if unknown:
        errors.append(f"unknown field(s): {', '.join(unknown)}")
    for name in ("app", "nranks"):
        if name not in payload:
            errors.append(f"{name}: required field is missing")
    space = SearchSpace()
    if "space" in payload:
        try:
            space = SearchSpace.from_doc(payload["space"])
        except SpaceValidationError as exc:
            errors.extend(exc.errors)
    if not errors:
        kwargs = {
            k: payload[k]
            for k in SWEEP_FIELDS
            if k in payload and k != "space"
        }
        try:
            return SweepSpec(search=SearchSpec(space=space, **kwargs))
        except SearchSpecError as exc:
            errors.extend(exc.errors)
        except TypeError as exc:
            errors.append(str(exc))
    raise JobValidationError(errors)


def canonicalize(payload: Any) -> JobSpec:
    """Validate a submission and return its canonical :class:`JobSpec`.

    Every problem is collected before raising, so a client sees the full
    list of offending fields in one round trip, not one per retry.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        raise JobValidationError(
            [f"job spec must be a JSON object, got {type(payload).__name__}"]
        )
    unknown = sorted(set(payload) - set(FIELDS))
    if unknown:
        errors.append(f"unknown field(s): {', '.join(unknown)}")
    values: dict[str, Any] = {}
    for name, (default, kind) in FIELDS.items():
        if name not in payload:
            if default is None and name in ("app", "nranks"):
                errors.append(f"{name}: required field is missing")
                continue
            values[name] = tuple(sorted(default.items())) if name == "overrides" else default
            continue
        checked = _validate_field(name, kind, payload[name], errors)
        if checked is not None:
            values[name] = checked
    if errors:
        raise JobValidationError(errors)
    return JobSpec(**values)
