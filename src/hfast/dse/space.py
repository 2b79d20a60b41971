"""Declarative interconnect design-space specification.

A :class:`SearchSpace` names the candidate values per tunable dimension
of :class:`hfast.interconnect.InterconnectConfig`:

- ``circuits`` — circuits per node (doubles as the per-node degree bound
  the matcher enforces);
- ``reconfig_costs`` — seconds charged per circuit established after the
  initial configuration;
- ``timesteps`` — traffic-slice granularity for the temporal evaluator.

Validation uses :mod:`hfast.spec`'s checks and, like a run spec,
collects every problem before :class:`SpaceValidationError` (a
:class:`~hfast.spec.SpecError`) is raised. Dimension values are
deduplicated and stored sorted, so two specs that differ only in listing
order are the same space — and hash to the same :meth:`SearchSpace.key`.

Enumeration (:meth:`SearchSpace.grid`) walks the Cartesian product in
canonical dimension order; sampling (:meth:`SearchSpace.sample`) draws
each candidate's coordinates from independent splitmix64 streams keyed
on (seed, draw index, dimension), so it is reproducible across
platforms and independent of any global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from hfast.spec import (
    MAX_TIMESTEPS,
    InterconnectConfig,
    SpecError,
    check_int,
    check_number,
    content_key,
)
from hfast.timing import mix64

SPACE_FORMAT = 1

MAX_CIRCUITS = 1 << 10
MAX_GRID = 100_000

#: Canonical dimension order for enumeration and candidate documents.
DIMENSIONS = ("circuits", "reconfig_costs", "timesteps")

# Distinct hash stream per dimension so a sampled candidate's coordinates
# are independent draws.
_DIM_STREAMS = {name: mix64(0xD5E_0000 + i) for i, name in enumerate(DIMENSIONS)}


class SpaceValidationError(SpecError):
    """A space spec failed validation; ``errors`` lists every problem."""


@dataclass(frozen=True)
class Candidate:
    """One point in the space: a concrete interconnect configuration."""

    circuits_per_node: int
    reconfig_cost: float
    timesteps: int

    def to_doc(self) -> dict[str, Any]:
        return {
            "circuits_per_node": self.circuits_per_node,
            "reconfig_cost": float(self.reconfig_cost),
            "timesteps": self.timesteps,
        }

    @property
    def key(self) -> str:
        """Short stable id for labels, journaling, and dedup."""
        return content_key(self.to_doc())[:12]

    def config(self) -> InterconnectConfig:
        """The full interconnect config: this point, defaults elsewhere."""
        return InterconnectConfig(**self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "Candidate":
        return cls(
            circuits_per_node=int(doc["circuits_per_node"]),
            reconfig_cost=float(doc["reconfig_cost"]),
            timesteps=int(doc["timesteps"]),
        )


@dataclass(frozen=True)
class SearchSpace:
    """Validated candidate values per dimension, stored sorted + deduped."""

    circuits: tuple[int, ...] = (1, 2, 4, 8)
    reconfig_costs: tuple[float, ...] = (0.0, 1e-3)
    timesteps: tuple[int, ...] = (1, 4)

    def __post_init__(self) -> None:
        errors: list[str] = []
        object.__setattr__(
            self, "circuits",
            _dim(self.circuits, "circuits", errors, _check_circuits),
        )
        object.__setattr__(
            self, "reconfig_costs",
            _dim(self.reconfig_costs, "reconfig_costs", errors, _check_reconfig),
        )
        object.__setattr__(
            self, "timesteps",
            _dim(self.timesteps, "timesteps", errors, _check_timesteps),
        )
        if not errors and self.size > MAX_GRID:
            errors.append(f"space enumerates {self.size} candidates (max {MAX_GRID})")
        if errors:
            raise SpaceValidationError(errors)

    @property
    def size(self) -> int:
        return len(self.circuits) * len(self.reconfig_costs) * len(self.timesteps)

    def grid(self) -> list[Candidate]:
        """Every candidate, in canonical dimension order."""
        return [
            Candidate(c, rc, t)
            for c in self.circuits
            for rc in self.reconfig_costs
            for t in self.timesteps
        ]

    def sample(self, n: int, seed: int) -> list[Candidate]:
        """``n`` seeded draws (with replacement) from the space.

        Each coordinate comes from ``mix64(seed_base ^ dim_stream ^ i)``
        reduced mod the dimension's cardinality — deterministic, platform
        independent, and stable under re-ordering of the input lists
        (values are stored sorted).
        """
        if n < 0:
            raise ValueError(f"sample size must be non-negative, got {n}")
        base = mix64(seed & ((1 << 64) - 1))
        out: list[Candidate] = []
        for i in range(n):
            c = self.circuits[
                mix64(base ^ _DIM_STREAMS["circuits"] ^ i) % len(self.circuits)
            ]
            rc = self.reconfig_costs[
                mix64(base ^ _DIM_STREAMS["reconfig_costs"] ^ i) % len(self.reconfig_costs)
            ]
            t = self.timesteps[
                mix64(base ^ _DIM_STREAMS["timesteps"] ^ i) % len(self.timesteps)
            ]
            out.append(Candidate(c, rc, t))
        return out

    def mutate(self, cand: Candidate, seed: int, stream: int) -> Candidate:
        """One hash-driven mutation of a candidate (evolutionary step).

        Exactly one dimension is re-drawn, chosen by the hash; which
        value it lands on comes from a second hash. Fully determined by
        (candidate, seed, stream).
        """
        h = mix64(seed ^ mix64(stream) ^ int(cand.key[:8], 16))
        dims = [
            ("circuits", self.circuits),
            ("reconfig_costs", self.reconfig_costs),
            ("timesteps", self.timesteps),
        ]
        name, values = dims[h % len(dims)]
        value = values[mix64(h) % len(values)]
        doc = cand.to_doc()
        doc[{
            "circuits": "circuits_per_node",
            "reconfig_costs": "reconfig_cost",
            "timesteps": "timesteps",
        }[name]] = value
        return Candidate.from_doc(doc)

    def to_doc(self) -> dict[str, Any]:
        return {
            "format": SPACE_FORMAT,
            "circuits": list(self.circuits),
            "reconfig_costs": [float(v) for v in self.reconfig_costs],
            "timesteps": list(self.timesteps),
        }

    @property
    def key(self) -> str:
        """Content address of the canonical space document."""
        return content_key(self.to_doc())

    @classmethod
    def from_doc(cls, doc: Any) -> "SearchSpace":
        """Build a space from an untrusted document, collecting errors."""
        errors: list[str] = []
        if not isinstance(doc, dict):
            raise SpaceValidationError(
                [f"space must be a JSON object, got {type(doc).__name__}"]
            )
        unknown = sorted(set(doc) - set(DIMENSIONS) - {"format"})
        if unknown:
            errors.append(f"space: unknown field(s): {', '.join(unknown)}")
        fmt = doc.get("format", SPACE_FORMAT)
        if fmt != SPACE_FORMAT:
            errors.append(f"space: unsupported format {fmt!r} (expected {SPACE_FORMAT})")
        values: dict[str, Any] = {}
        defaults = cls()
        for name in DIMENSIONS:
            if name not in doc:
                values[name] = getattr(defaults, name)
                continue
            raw = doc[name]
            if not isinstance(raw, (list, tuple)):
                errors.append(f"space.{name}: expected a list, got {type(raw).__name__}")
                continue
            values[name] = tuple(raw)
        if errors:
            raise SpaceValidationError(errors)
        return cls(**values)


def _dim(values: Any, name: str, errors: list[str], check) -> tuple:
    """Validate, dedupe, and sort one dimension's value list."""
    if not isinstance(values, (list, tuple)):
        errors.append(f"{name}: expected a list, got {type(values).__name__}")
        return ()
    if not values:
        errors.append(f"{name}: at least one value is required")
        return ()
    clean = []
    for v in values:
        checked = check(v, name, errors)
        if checked is not None and checked not in clean:
            clean.append(checked)
    return tuple(sorted(clean))


def _check_circuits(v: Any, name: str, errors: list[str]) -> int | None:
    return v if check_int(name, v, errors, 0, MAX_CIRCUITS) else None


def _check_reconfig(v: Any, name: str, errors: list[str]) -> float | None:
    return float(v) if check_number(name, v, errors, positive=False) else None


def _check_timesteps(v: Any, name: str, errors: list[str]) -> int | None:
    return v if check_int(name, v, errors, 1, MAX_TIMESTEPS) else None
