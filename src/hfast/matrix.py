"""Communication-matrix reduction.

Reduces a trace's point-to-point records into sparse edge columns: one
row per ordered (src, dst) rank pair that carries bytes or messages, in
(src, dst) order. The paper's codes talk to a small, fixed set of
partners, so the link count grows with the ranks, not with their square
— a 32K-rank cactus trace has ~200K links where a dense plane would
hold a billion cells. Traffic is attributed send-side; when a trace only
records one side of an exchange (as IPM sometimes does), the
recv-derived volume fills the gap via a per-pair max, so volume is never
double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hfast.matcher import tie_order
from hfast.obs.profile import profiled
from hfast.records import RECV_CALLS, SEND_CALLS, RecordBatch


@dataclass
class CommMatrix:
    """Point-to-point traffic as edge columns (int64 each).

    Row ``i`` is the link ``src[i] -> dst[i]`` with ``bytes[i]`` payload
    bytes in ``msgs[i]`` messages. Rows are in ascending ``(src, dst)``
    order and hold each pair at most once.
    """

    nranks: int
    src: np.ndarray
    dst: np.ndarray
    bytes: np.ndarray
    msgs: np.ndarray

    @property
    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    @property
    def total_messages(self) -> int:
        return int(self.msgs.sum())

    def nonzero_links(self) -> int:
        return int(np.count_nonzero(self.bytes))

    @cached_property
    def tie_order(self) -> np.ndarray:
        """The rows' :func:`hfast.matcher.tie_order`, built on first use:
        every match over this matrix orders its edges from it."""
        return tie_order(self.src, self.dst, self.nranks)

    def top_peers(self, rank: int, k: int = 5) -> list[tuple[int, int]]:
        """Heaviest (peer, bytes) partners of one rank by send + recv
        volume, heaviest first; equal volumes go lowest peer id first."""
        volume = np.zeros(self.nranks, dtype=np.int64)
        lo, hi = np.searchsorted(self.src, (rank, rank + 1))  # rows are src-ordered
        volume[self.dst[lo:hi]] = self.bytes[lo:hi]
        into = self.dst == rank
        volume[self.src[into]] += self.bytes[into]
        peers = np.flatnonzero(volume)
        best = peers[np.argsort(-volume[peers], kind="stable")[:k]]
        return [(int(p), int(volume[p])) for p in best]


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in sorted ``keys``."""
    if not len(keys):
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


@profiled("matrix_reduce")
def reduce_matrix(batch: RecordBatch, nranks: int) -> CommMatrix:
    """Build the communication matrix from a batch's point-to-point records.

    Sends count as ``rank -> peer`` and receives as ``peer -> rank``;
    self-traffic and zero-size records are dropped. One sort groups the
    records by ``(src, dst, side)``, int64 sums reduce each group, and
    each pair keeps the larger of its send-side and receive-side totals
    (bytes and messages independently).
    """
    active = (batch.size > 0) & (batch.rank != batch.peer)
    send = np.flatnonzero(batch.call_mask(SEND_CALLS) & active)
    recv = np.flatnonzero(batch.call_mask(RECV_CALLS) & active)
    n = np.int64(max(1, nranks))
    src = np.concatenate((batch.rank[send], batch.peer[recv])).astype(np.int64)
    dst = np.concatenate((batch.peer[send], batch.rank[recv])).astype(np.int64)
    # Sort key (pair, side): a pair's receive-side records follow its sends.
    key = (src * n + dst) * 2
    key[len(send) :] += 1
    # Stable: canonical record order leaves long sorted runs to merge.
    order = np.argsort(key, kind="stable")
    key = key[order]
    rows = np.concatenate((send, recv))[order]
    count = batch.count[rows].astype(np.int64)
    sides = run_starts(key)
    side_bytes = np.add.reduceat(batch.size[rows].astype(np.int64) * count, sides)
    side_msgs = np.add.reduceat(count, sides)
    pair = key[sides] // 2
    pairs = run_starts(pair)
    link_bytes = np.maximum.reduceat(side_bytes, pairs)
    link_msgs = np.maximum.reduceat(side_msgs, pairs)
    keep = (link_bytes > 0) | (link_msgs > 0)
    pair = pair[pairs][keep]
    return CommMatrix(
        nranks=nranks,
        src=pair // n,
        dst=pair % n,
        bytes=link_bytes[keep],
        msgs=link_msgs[keep],
    )
