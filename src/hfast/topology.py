"""Topology-degree analysis (the paper's central measurement).

The SC'05 study's key observation: most ultra-scale applications talk to a
small, fixed set of partners, so a hybrid interconnect can provision
circuits for the heavy links and fall back to a cheap packet network for
the rest. These reductions quantify that: per-rank degree, the degree
distribution, and the traffic fraction concentrated on each rank's top-k
partners. They are segment reductions over the matrix's edge columns —
each link counts at both of its ends, one sort groups the per-(rank,
peer) volumes — so the cost follows the link count, not ``nranks**2``.
The dense-plane reference they equal is in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfast.matrix import CommMatrix, run_starts
from hfast.obs.profile import profiled


@dataclass
class TopologyStats:
    nranks: int
    degrees: np.ndarray  # per-rank partner count (union of send/recv)
    max_degree: int
    avg_degree: float
    degree_histogram: dict[int, int]
    concentration: dict[int, float]  # k -> fraction of bytes on top-k partners/rank

    def to_dict(self) -> dict:
        return {
            "nranks": self.nranks,
            "max_degree": self.max_degree,
            "avg_degree": round(self.avg_degree, 3),
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "concentration": {str(k): round(v, 4) for k, v in sorted(self.concentration.items())},
        }


@profiled("topology_degree")
def analyze_topology(cm: CommMatrix, ks: tuple[int, ...] = (1, 2, 4, 8, 16)) -> TopologyStats:
    n = np.int64(max(1, cm.nranks))
    # Partner volume seen by each rank, regardless of direction: every
    # off-diagonal link counts at both of its ends, summed per (rank, peer).
    off = cm.src != cm.dst
    key = np.concatenate((cm.src[off] * n + cm.dst[off], cm.dst[off] * n + cm.src[off]))
    order = np.argsort(key, kind="stable")  # both halves arrive in sorted runs
    key = key[order]
    starts = run_starts(key)
    volume = np.add.reduceat(np.concatenate((cm.bytes[off], cm.bytes[off]))[order], starts)
    partner = volume > 0
    rank, volume = key[starts][partner] // n, volume[partner]
    degrees = np.bincount(rank, minlength=cm.nranks)
    per_degree = np.bincount(degrees)
    hist = {int(d): int(per_degree[d]) for d in np.flatnonzero(per_degree)}

    total = float(volume.sum())
    concentration: dict[int, float] = {}
    if total > 0:
        # Each rank's partners heaviest first, and each one's place in that list.
        order = np.lexsort((-volume, rank))
        rank, volume = rank[order], volume[order]
        place = np.arange(len(rank)) - np.searchsorted(rank, rank)
        for k in ks:
            concentration[k] = float(volume[place < k].sum()) / total
    else:
        concentration = {k: 0.0 for k in ks}

    return TopologyStats(
        nranks=cm.nranks,
        degrees=degrees,
        max_degree=int(degrees.max()) if cm.nranks else 0,
        avg_degree=float(degrees.mean()) if cm.nranks else 0.0,
        degree_histogram=hist,
        concentration=concentration,
    )
