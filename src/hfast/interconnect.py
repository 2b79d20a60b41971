"""Hybrid-interconnect evaluation (HFAST model).

Models the paper's proposal: a Hybrid Flexibly Assignable Switch Topology
where an optical circuit-switch layer provisions a bounded number of
dedicated circuits per node for the heaviest links, and the residue rides
a conventional packet network.

Two evaluators coexist:

- :func:`evaluate_hybrid` — one static circuit assignment over the whole
  trace, either the original greedy heaviest-first pass or a
  degree-constrained max-weight matching (greedy + augmenting swaps, no
  scipy) that never covers less traffic than greedy.
- :func:`evaluate_temporal` — slices the communication matrix into
  timesteps, re-matches circuits per step, and charges a reconfiguration
  cost for every circuit established after the initial configuration.
  With one timestep and zero reconfiguration cost it reduces exactly to
  the static matching evaluation.

The matching itself is :func:`hfast.matcher.match_edges`, the one
matching path; the differential suite pins it, through this module's
evaluators, against the pure-Python reference matcher in
``tests/oracles.py``. The temporal evaluator works entirely on columnar
edge arrays: traffic is sliced for all timesteps in one batched
``(T, E)`` computation and per-node finish times come from edge
``bincount`` sums (exact for integer traffic, hence float-identical to
the dense row sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hfast.matcher import greedy_circuits, match_edges
from hfast.matrix import CommMatrix
from hfast.obs.profile import profiled
from hfast.timing import mix64, mix64_vec


@dataclass
class InterconnectConfig:
    circuits_per_node: int = 4
    circuit_bandwidth: float = 10e9  # bytes/s per provisioned circuit
    packet_bandwidth: float = 1e9  # bytes/s shared packet fabric per node
    circuit_latency: float = 1e-6  # s, source-routed circuit
    packet_latency: float = 10e-6  # s, store-and-forward packet path
    timesteps: int = 4  # temporal evaluator: number of traffic slices
    reconfig_cost: float = 1e-3  # s per circuit established after t=0 (MEMS-scale)
    slice_seed: int = 0  # seed for the deterministic traffic slicer

    def __post_init__(self) -> None:
        """Reject out-of-range parameters, naming every bad field at once."""
        errors = []
        if not _is_int(self.circuits_per_node) or self.circuits_per_node < 0:
            errors.append(
                f"circuits_per_node: expected a non-negative integer, "
                f"got {self.circuits_per_node!r}"
            )
        for name in ("circuit_bandwidth", "packet_bandwidth", "circuit_latency", "packet_latency"):
            value = getattr(self, name)
            if not _is_finite_number(value) or value <= 0:
                errors.append(f"{name}: expected a positive finite number, got {value!r}")
        if not _is_int(self.timesteps) or self.timesteps < 1:
            errors.append(f"timesteps: expected an integer >= 1, got {self.timesteps!r}")
        if not _is_finite_number(self.reconfig_cost) or self.reconfig_cost < 0:
            errors.append(
                f"reconfig_cost: expected a non-negative finite number, "
                f"got {self.reconfig_cost!r}"
            )
        if errors:
            raise ValueError("invalid interconnect config: " + "; ".join(errors))

    def to_dict(self) -> dict:
        return {
            "circuits_per_node": self.circuits_per_node,
            "circuit_bandwidth": self.circuit_bandwidth,
            "packet_bandwidth": self.packet_bandwidth,
            "circuit_latency": self.circuit_latency,
            "packet_latency": self.packet_latency,
            "timesteps": self.timesteps,
            "reconfig_cost": self.reconfig_cost,
            "slice_seed": self.slice_seed,
        }


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class HybridEvaluation:
    config: InterconnectConfig
    circuits: list[tuple[int, int]] = field(default_factory=list)
    circuit_bytes: int = 0
    packet_bytes: int = 0
    coverage: float = 0.0  # fraction of ptp bytes carried on circuits
    fully_provisionable: bool = False  # every active link got a circuit
    hybrid_time: float = 0.0
    packet_only_time: float = 0.0
    speedup: float = 1.0
    strategy: str = "greedy"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "strategy": self.strategy,
            "n_circuits": len(self.circuits),
            "circuit_bytes": self.circuit_bytes,
            "packet_bytes": self.packet_bytes,
            "coverage": round(self.coverage, 4),
            "fully_provisionable": self.fully_provisionable,
            "hybrid_time": self.hybrid_time,
            "packet_only_time": self.packet_only_time,
            "speedup": round(self.speedup, 3),
        }


@dataclass
class TemporalEvaluation:
    """Per-timestep circuit assignment with reconfiguration cost."""

    config: InterconnectConfig
    timesteps: int = 1
    circuit_bytes: int = 0
    packet_bytes: int = 0
    coverage: float = 0.0
    n_reconfigs: int = 0  # circuits established after the initial configuration
    hybrid_time: float = 0.0
    packet_only_time: float = 0.0
    speedup: float = 1.0
    static_coverage: float = 0.0  # static-greedy baseline on the same matrix
    static_speedup: float = 1.0
    per_step: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "timesteps": self.timesteps,
            "reconfig_cost": self.config.reconfig_cost,
            "circuit_bytes": self.circuit_bytes,
            "packet_bytes": self.packet_bytes,
            "coverage": round(self.coverage, 4),
            "n_reconfigs": self.n_reconfigs,
            "hybrid_time": self.hybrid_time,
            "packet_only_time": self.packet_only_time,
            "speedup": round(self.speedup, 3),
            "static_coverage": round(self.static_coverage, 4),
            "static_speedup": round(self.static_speedup, 3),
            "per_step": list(self.per_step),
        }


def assign_circuits(cm: CommMatrix, circuits_per_node: int) -> list[tuple[int, int]]:
    """Greedy heaviest-first circuit assignment under a per-node budget.

    Circuits are unidirectional (src -> dst); each endpoint spends one
    circuit from its budget (egress at src, ingress at dst). Edges are
    visited in the canonical ``(-weight, src, dst)`` order shared with
    the matcher, so the greedy baseline is reproducible from
    sparse edge lists at any scale. Kept as the baseline the matching
    assignment is measured against; self-loops never get circuits.
    """
    return greedy_circuits(cm.bytes_matrix, cm.nranks, circuits_per_node)


def assign_circuits_matching(
    weights: np.ndarray, circuits_per_node: int
) -> list[tuple[int, int]]:
    """Degree-constrained max-weight matching via greedy + augmenting swaps.

    A b-matching on the bipartite egress/ingress graph: each node may
    source and sink at most ``circuits_per_node`` circuits. Seeds with
    the canonical-order greedy solution, then alternates 1-for-k swap and
    2-for-1 augment passes; every accepted move strictly increases total
    matched weight, so the result never covers less than greedy — without
    scipy's linear_sum_assignment and in O(passes * E * b) time.

    Deterministic: edges are visited in ``(-weight, src, dst)`` order and
    victims picked by ``(weight, node)`` order (the implementation is
    :func:`hfast.matcher.match_edges`).
    Zero-weight edges, self-loops, and a zero budget never contribute.
    """
    if circuits_per_node <= 0:
        return []
    n = weights.shape[0]
    src, dst = np.nonzero(np.asarray(weights) > 0)
    keep = src != dst
    src, dst = src[keep].astype(np.int64), dst[keep].astype(np.int64)
    w = np.asarray(weights, dtype=np.float64)[src, dst]
    return match_edges(src, dst, w, n, circuits_per_node)


def _node_finish_times(
    bytes_m: np.ndarray,
    msg_m: np.ndarray,
    circuit_mask: np.ndarray,
    config: InterconnectConfig,
) -> tuple[float, float]:
    """(hybrid, packet-only) fabric finish times for one traffic matrix.

    Per-node serialization: a node's cost is the max over its circuit and
    packet egress streams; the fabric finishes when the slowest node does.
    """
    circ_bytes_out = np.where(circuit_mask, bytes_m, 0).sum(axis=1)
    pkt_bytes_out = np.where(~circuit_mask, bytes_m, 0).sum(axis=1)
    circ_msgs = np.where(circuit_mask, msg_m, 0).sum(axis=1)
    pkt_msgs = np.where(~circuit_mask, msg_m, 0).sum(axis=1)

    circ_time = circ_bytes_out / config.circuit_bandwidth + circ_msgs * config.circuit_latency
    pkt_time = pkt_bytes_out / config.packet_bandwidth + pkt_msgs * config.packet_latency
    hybrid = float(np.maximum(circ_time, pkt_time).max()) if bytes_m.shape[0] else 0.0

    all_time = (
        bytes_m.sum(axis=1) / config.packet_bandwidth
        + msg_m.sum(axis=1) * config.packet_latency
    )
    packet_only = float(all_time.max()) if bytes_m.shape[0] else 0.0
    return hybrid, packet_only


def _edge_finish_times(
    src: np.ndarray,
    dst: np.ndarray,
    edge_bytes: np.ndarray,
    edge_msgs: np.ndarray,
    circuit_edges: np.ndarray,
    nranks: int,
    config: InterconnectConfig,
) -> tuple[float, float]:
    """:func:`_node_finish_times` over edge columns instead of a dense matrix.

    Per-node sums come from ``bincount`` with float64 weights; integer
    traffic sums below 2**53 are exact in float64 regardless of order, so
    the result is float-identical to the dense row sums — which is what
    lets the temporal evaluator stay columnar while still reducing
    exactly to the dense static evaluation at ``timesteps=1``.
    """
    if nranks <= 0:
        return 0.0, 0.0
    circ = np.zeros(len(edge_bytes), dtype=bool)
    circ[circuit_edges] = True
    eb = edge_bytes.astype(np.float64)
    em = edge_msgs.astype(np.float64)

    def node_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return np.bincount(src[mask], weights=values[mask], minlength=nranks)

    circ_time = (
        node_sum(eb, circ) / config.circuit_bandwidth
        + node_sum(em, circ) * config.circuit_latency
    )
    pkt_time = (
        node_sum(eb, ~circ) / config.packet_bandwidth
        + node_sum(em, ~circ) * config.packet_latency
    )
    hybrid = float(np.maximum(circ_time, pkt_time).max())

    all_bytes = np.bincount(src, weights=eb, minlength=nranks)
    all_msgs = np.bincount(src, weights=em, minlength=nranks)
    packet_only = float(
        (all_bytes / config.packet_bandwidth + all_msgs * config.packet_latency).max()
    )
    return hybrid, packet_only


@profiled("interconnect_eval")
def evaluate_hybrid(
    cm: CommMatrix,
    config: InterconnectConfig | None = None,
    strategy: str = "greedy",
) -> HybridEvaluation:
    """Static circuit assignment over the whole-trace matrix."""
    if strategy not in ("greedy", "matching"):
        raise ValueError(f"unknown strategy {strategy!r} (expected 'greedy' or 'matching')")
    config = config or InterconnectConfig()
    ev = HybridEvaluation(config=config, strategy=strategy)
    total = cm.total_bytes
    if total == 0:
        ev.fully_provisionable = True
        return ev

    if strategy == "matching":
        ev.circuits = assign_circuits_matching(cm.bytes_matrix, config.circuits_per_node)
    else:
        ev.circuits = assign_circuits(cm, config.circuits_per_node)
    circuit_mask = np.zeros_like(cm.bytes_matrix, dtype=bool)
    for src, dst in ev.circuits:
        circuit_mask[src, dst] = True

    ev.circuit_bytes = int(cm.bytes_matrix[circuit_mask].sum())
    ev.packet_bytes = total - ev.circuit_bytes
    ev.coverage = ev.circuit_bytes / total
    active_links = cm.nonzero_links()
    ev.fully_provisionable = len(ev.circuits) == active_links

    ev.hybrid_time, ev.packet_only_time = _node_finish_times(
        cm.bytes_matrix, cm.msg_matrix, circuit_mask, config
    )
    if ev.hybrid_time > 0:
        ev.speedup = ev.packet_only_time / ev.hybrid_time
    return ev


_SLICE_STREAM_START = 0x51A5E5EED5EED5E5
_SLICE_STREAM_WIDTH = 0x1DEA7EA51DEA7EA5


def slice_edge_volumes(
    src: np.ndarray,
    dst: np.ndarray,
    link_bytes: np.ndarray,
    link_msgs: np.ndarray,
    timesteps: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched per-timestep traffic shares for a link list: two (T, E) planes.

    Each link gets a hash-derived activity window (start phase and width
    in steps) from its ``(src, dst)`` pair alone; its volume spreads
    evenly across the window with the integer remainder going to the
    earliest steps. Column sums reproduce the input volumes exactly. All
    timesteps are computed in one vectorized pass — this is the batched
    core both :func:`slice_traffic` and the temporal evaluator consume.
    """
    link_bytes = np.asarray(link_bytes, dtype=np.int64)
    link_msgs = np.asarray(link_msgs, dtype=np.int64)
    if timesteps <= 1:
        return link_bytes[None, :].copy(), link_msgs[None, :].copy()
    T = int(timesteps)
    key = (np.asarray(src).astype(np.uint64) << np.uint64(32)) ^ np.asarray(dst).astype(
        np.uint64
    )
    h = mix64_vec(np.uint64(mix64(seed & ((1 << 64) - 1))) ^ key)
    start = (h % np.uint64(T)).astype(np.int64)
    width = (
        mix64_vec(h ^ np.uint64(_SLICE_STREAM_WIDTH)) % np.uint64(T)
    ).astype(np.int64) + 1  # in [1, T]

    rel = (np.arange(T, dtype=np.int64)[:, None] - start[None, :]) % T  # (T, E)
    active = rel < width[None, :]
    planes = []
    for vol in (link_bytes, link_msgs):
        base, rem = vol // width, vol % width
        planes.append(np.where(active, base[None, :] + (rel < rem[None, :]), 0))
    return planes[0], planes[1]


def _link_support(cm: CommMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Links carrying any traffic: bytes *or* messages nonzero.

    The union matters: a link with messages but zero bytes (e.g. pure
    synchronization) still owes packet latency, and slicing over the
    bytes support alone would silently drop its message volume.
    """
    src, dst = np.nonzero((cm.bytes_matrix > 0) | (cm.msg_matrix > 0))
    return src.astype(np.int64), dst.astype(np.int64)


def slice_traffic(
    cm: CommMatrix, timesteps: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministically slice a matrix into per-timestep (bytes, msgs).

    Dense view over :func:`slice_edge_volumes`. Summing the slices
    reproduces the input matrices exactly (message-only links included),
    and ``timesteps=1`` returns the input unchanged — the paper's
    time-varying (AMR-style) traffic stand-in for traces that only carry
    aggregate counts.
    """
    if timesteps <= 1:
        return [(cm.bytes_matrix.copy(), cm.msg_matrix.copy())]
    T = int(timesteps)
    n = cm.nranks
    src, dst = _link_support(cm)
    if src.size == 0:
        zero_b = np.zeros((n, n), dtype=cm.bytes_matrix.dtype)
        zero_m = np.zeros((n, n), dtype=cm.msg_matrix.dtype)
        return [(zero_b.copy(), zero_m.copy()) for _ in range(T)]
    eb, em = slice_edge_volumes(
        src, dst, cm.bytes_matrix[src, dst], cm.msg_matrix[src, dst], T, seed
    )
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for t in range(T):
        mats = []
        for plane in (eb, em):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[src, dst] = plane[t]
            mats.append(mat)
        out.append((mats[0], mats[1]))
    return out


@profiled("interconnect_temporal")
def evaluate_temporal(
    cm: CommMatrix,
    config: InterconnectConfig | None = None,
    static: HybridEvaluation | None = None,
) -> TemporalEvaluation:
    """Per-timestep max-weight circuit assignment with reconfiguration cost.

    Circuits are re-matched on every traffic slice. Keeping a circuit is
    free; establishing one after the initial configuration costs
    ``config.reconfig_cost`` seconds, and the matcher sees an equivalent
    keep-bonus (``reconfig_cost * circuit_bandwidth`` bytes) on carried
    links so it only reconfigures when the traffic gain pays for the
    switch-over. With ``timesteps=1`` and zero cost this is exactly the
    static matching evaluation.

    The whole evaluator is columnar: one batched ``(T, E)`` slicing pass,
    per-step weights gathered from the step's row, one
    :func:`hfast.matcher.match_edges` call per step, and finish times
    from edge ``bincount`` sums. An empty traffic slice keeps the previous
    configuration standing (circuits idle, they don't tear down), so
    traffic resuming after a gap is not charged for circuits it already
    held — and the first slice that establishes any circuits is the free
    initial configuration, whether or not it is literally step 0.

    ``static`` is the static-greedy baseline (``evaluate_hybrid(cm,
    config)``) when the caller already has it; without it, it is computed
    here.
    """
    config = config or InterconnectConfig()
    T = config.timesteps
    ev = TemporalEvaluation(config=config, timesteps=T)
    total = cm.total_bytes
    if total == 0:
        return ev

    if static is None:
        static = evaluate_hybrid(cm, config, strategy="greedy")
    elif static.strategy != "greedy":
        raise ValueError(f"static baseline must be greedy, got {static.strategy!r}")
    ev.static_coverage = static.coverage
    ev.static_speedup = static.speedup

    n = cm.nranks
    src, dst = _link_support(cm)
    eb, em = slice_edge_volumes(
        src, dst, cm.bytes_matrix[src, dst], cm.msg_matrix[src, dst], T, config.slice_seed
    )

    # Matchable universe: off-diagonal links (self-loop traffic stays on
    # the packet fabric). np.nonzero is row-major, so this is already in
    # (src, dst) ascending order, which the circuit lookup below relies on.
    match_ids = np.flatnonzero(src != dst)
    pair_m = src[match_ids] * np.int64(max(1, n)) + dst[match_ids]
    bound = config.circuits_per_node

    keep_bonus = config.reconfig_cost * config.circuit_bandwidth
    prev_mask = np.zeros(match_ids.size, dtype=bool)
    have_prev = False
    circuit_bytes = 0
    hybrid_time = 0.0
    packet_time = 0.0
    for t in range(T):
        w = eb[t, match_ids].astype(np.float64)
        if have_prev and keep_bonus > 0.0:
            w[prev_mask & (w > 0)] += keep_bonus
        circuits = match_edges(src[match_ids], dst[match_ids], w, n, bound)
        if circuits:
            qp = np.fromiter(
                (s * n + d for s, d in circuits), dtype=np.int64, count=len(circuits)
            )
            sel_pos = np.searchsorted(pair_m, qp)
        else:
            sel_pos = np.empty(0, dtype=np.int64)
        sel_mask = np.zeros(match_ids.size, dtype=bool)
        sel_mask[sel_pos] = True
        changes = int(np.count_nonzero(sel_mask & ~prev_mask)) if have_prev else 0

        sel_edges = match_ids[sel_pos]
        step_circuit_bytes = int(eb[t, sel_edges].sum())
        circuit_bytes += step_circuit_bytes

        step_hybrid, step_packet = _edge_finish_times(
            src, dst, eb[t], em[t], sel_edges, n, config
        )
        hybrid_time += step_hybrid + changes * config.reconfig_cost
        packet_time += step_packet
        ev.n_reconfigs += changes
        step_total = int(eb[t].sum())
        ev.per_step.append(
            {
                "t": t,
                "n_circuits": len(circuits),
                "changes": changes,
                "coverage": round(step_circuit_bytes / step_total, 4) if step_total else 0.0,
            }
        )
        if circuits:
            prev_mask = sel_mask
            have_prev = True

    ev.circuit_bytes = circuit_bytes
    ev.packet_bytes = total - circuit_bytes
    ev.coverage = circuit_bytes / total
    ev.hybrid_time = hybrid_time
    ev.packet_only_time = packet_time
    if hybrid_time > 0:
        ev.speedup = packet_time / hybrid_time
    return ev
