"""Sweep job specifications: validation and content addressing.

An analysis job (``POST /v1/jobs``) is one cell of a
:class:`~hfast.spec.RunSpec`, read from its flat wire form by
:meth:`RunSpec.from_wire <hfast.spec.RunSpec.from_wire>`; its key is the
spec's key. This module covers the other job kind.

``POST /v1/sweeps`` submissions go through :func:`canonicalize_sweep`:
the payload names a design-space search (workload + space + strategy +
seed), validation delegates to the DSE layer's own
:class:`~hfast.dse.space.SearchSpace` /
:class:`~hfast.dse.search.SearchSpec` validators (errors merged into
one :class:`~hfast.spec.SpecError`), and the resulting
:class:`SweepSpec`'s key IS the search's content key — so the stored
frontier artifact is addressed identically whether it came through the
daemon or a direct ``hfast search`` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from hfast.spec import SpecError

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
    protocol (``key``/``cell_key``/``to_wire``).
    """

    search: Any  # hfast.dse.search.SearchSpec

    @property
    def key(self) -> str:
        """The search's content key — shared with ``hfast search``."""
        return self.search.key

    @property
    def cell_key(self) -> str:
        return f"{self.search.app}_p{self.search.nranks}"

    def to_wire(self) -> dict[str, Any]:
        """Flat payload that round-trips through :func:`canonicalize_sweep`."""
        doc = self.search.canonical_doc()
        return {k: v for k, v in doc.items() if k != "format"}


def canonicalize_sweep(payload: Any) -> SweepSpec:
    """Validate a sweep submission and return its canonical :class:`SweepSpec`.

    Like :meth:`RunSpec.from_wire <hfast.spec.RunSpec.from_wire>`, every
    problem is collected before raising. Space and spec validation are
    delegated to the DSE layer so the service accepts exactly what
    ``hfast search`` accepts.
    """
    # Lazy import: only sweep submissions pull in the DSE package.
    from hfast.dse.search import SearchSpec
    from hfast.dse.space import SearchSpace

    errors: list[str] = []
    if not isinstance(payload, dict):
        raise SpecError([f"sweep spec must be a JSON object, got {type(payload).__name__}"])
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
        except SpecError as exc:
            errors.extend(exc.errors)
    if not errors:
        kwargs = {
            k: payload[k]
            for k in SWEEP_FIELDS
            if k in payload and k != "space"
        }
        try:
            return SweepSpec(search=SearchSpec(space=space, **kwargs))
        except SpecError as exc:
            errors.extend(exc.errors)
    raise SpecError(errors)
