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

Both read the :class:`hfast.matrix.CommMatrix` edge columns directly:
circuits are the row positions the matcher returns, traffic is sliced
for all timesteps in one batched ``(T, E)`` computation, and per-node
finish times come from edge ``bincount`` sums. The matching itself is
:func:`hfast.matcher.match_edges`, the one matching path. The
differential suites pin the evaluators against the pure-Python reference
matcher and against the dense ``nranks x nranks`` evaluators, both in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hfast.matcher import canonical_positions, greedy_seed_vector, match_edges
from hfast.matrix import CommMatrix
from hfast.obs.profile import profiled
from hfast.spec import InterconnectConfig
from hfast.timing import mix64, mix64_vec


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


def _edge_finish_times(
    src: np.ndarray,
    edge_bytes: np.ndarray,
    edge_msgs: np.ndarray,
    circuit_edges: np.ndarray,
    nranks: int,
    config: InterconnectConfig,
) -> tuple[float, float]:
    """(hybrid, packet-only) fabric finish times for one edge list.

    Per-node serialization: a node's cost is the max over its circuit and
    packet egress streams; the fabric finishes when the slowest node does.
    Per-node sums come from ``bincount`` with float64 weights. Integer
    traffic sums below 2**53 are exact in float64 in any order, so a
    node's packet share is exactly its total minus its circuit share, and
    the result is float-identical to the dense row sums of
    ``node_finish_times`` in ``tests/oracles.py``.
    """
    if nranks <= 0:
        return 0.0, 0.0
    eb = edge_bytes.astype(np.float64)
    em = edge_msgs.astype(np.float64)
    on = src[circuit_edges]
    all_bytes = np.bincount(src, weights=eb, minlength=nranks)
    all_msgs = np.bincount(src, weights=em, minlength=nranks)
    circ_bytes = np.bincount(on, weights=eb[circuit_edges], minlength=nranks)
    circ_msgs = np.bincount(on, weights=em[circuit_edges], minlength=nranks)

    circ_time = circ_bytes / config.circuit_bandwidth + circ_msgs * config.circuit_latency
    pkt_time = (all_bytes - circ_bytes) / config.packet_bandwidth + (
        all_msgs - circ_msgs
    ) * config.packet_latency
    hybrid = float(np.maximum(circ_time, pkt_time).max())
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
    """Static circuit assignment over the whole-trace matrix.

    ``greedy`` takes edges heaviest first in the canonical
    ``(-weight, stripe)`` order shared with the matcher
    (:func:`hfast.matcher.greedy_seed_vector`); ``matching`` runs
    :func:`hfast.matcher.match_edges`, which seeds with exactly that
    greedy solution and never covers less. Circuits are unidirectional
    and each endpoint spends one circuit of its budget; self-loops never
    get circuits.
    """
    if strategy not in ("greedy", "matching"):
        raise ValueError(f"unknown strategy {strategy!r} (expected 'greedy' or 'matching')")
    config = config or InterconnectConfig()
    ev = HybridEvaluation(config=config, strategy=strategy)
    total = cm.total_bytes
    if total == 0:
        ev.fully_provisionable = True
        return ev

    n = cm.nranks
    bound = config.circuits_per_node
    circuit_edges = np.empty(0, dtype=np.int64)
    if strategy == "matching":
        circuit_edges = match_edges(cm.src, cm.dst, cm.bytes, n, bound, tie=cm.tie_order)
    elif bound > 0:
        pos = canonical_positions(cm.src, cm.dst, cm.bytes, n, tie=cm.tie_order)
        seed = greedy_seed_vector(cm.src[pos], cm.dst[pos], cm.bytes[pos], n, bound)
        circuit_edges = np.sort(pos[seed])
    # The rows are (src, dst)-ordered, so ascending rows are sorted circuits.
    ev.circuits = list(zip(cm.src[circuit_edges].tolist(), cm.dst[circuit_edges].tolist()))

    ev.circuit_bytes = int(cm.bytes[circuit_edges].sum())
    ev.packet_bytes = total - ev.circuit_bytes
    ev.coverage = ev.circuit_bytes / total
    ev.fully_provisionable = len(ev.circuits) == cm.nonzero_links()

    ev.hybrid_time, ev.packet_only_time = _edge_finish_times(
        cm.src, cm.bytes, cm.msgs, circuit_edges, n, config
    )
    if ev.hybrid_time > 0:
        ev.speedup = ev.packet_only_time / ev.hybrid_time
    return ev


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
    earliest steps. Column sums reproduce the input volumes exactly
    (message-only links included) and ``timesteps=1`` returns the input
    volumes — the paper's time-varying (AMR-style) traffic stand-in for
    traces that only carry aggregate counts. All timesteps are computed
    in one vectorized pass.
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

    The whole evaluator is columnar: one batched ``(T, E)`` slicing pass
    over the matrix's rows, one :func:`hfast.matcher.match_edges` call
    per step on that step's row of the plane (its circuits come back as
    row positions), and finish times from edge ``bincount`` sums.
    Self-loop and message-only rows are sliced and charged like any other
    but never get a circuit. An empty traffic
    slice keeps the previous configuration standing (circuits idle, they
    don't tear down), so traffic resuming after a gap is not charged for
    circuits it already held — and the first slice that establishes any
    circuits is the free initial configuration, whether or not it is
    literally step 0.

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
    src, dst = cm.src, cm.dst
    eb, em = slice_edge_volumes(src, dst, cm.bytes, cm.msgs, T, config.slice_seed)
    bound = config.circuits_per_node

    keep_bonus = config.reconfig_cost * config.circuit_bandwidth
    prev_mask = np.zeros(len(src), dtype=bool)
    have_prev = False
    circuit_bytes = 0
    hybrid_time = 0.0
    packet_time = 0.0
    for t in range(T):
        w = eb[t].astype(np.float64)
        if have_prev and keep_bonus > 0.0:
            w[prev_mask & (w > 0)] += keep_bonus
        sel_edges = match_edges(src, dst, w, n, bound, tie=cm.tie_order)
        sel_mask = np.zeros(len(src), dtype=bool)
        sel_mask[sel_edges] = True
        changes = int(np.count_nonzero(sel_mask & ~prev_mask)) if have_prev else 0

        step_circuit_bytes = int(eb[t, sel_edges].sum())
        circuit_bytes += step_circuit_bytes

        step_hybrid, step_packet = _edge_finish_times(src, eb[t], em[t], sel_edges, n, config)
        hybrid_time += step_hybrid + changes * config.reconfig_cost
        packet_time += step_packet
        ev.n_reconfigs += changes
        step_total = int(eb[t].sum())
        ev.per_step.append(
            {
                "t": t,
                "n_circuits": len(sel_edges),
                "changes": changes,
                "coverage": round(step_circuit_bytes / step_total, 4) if step_total else 0.0,
            }
        )
        if sel_edges.size:
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
