"""Trace record model.

A trace is a set of aggregated per-rank MPI call records, the same shape
IPM emits after reduction: one record per distinct
(rank, call, message size, peer, region) tuple with a repeat count and
timing aggregates.

Records live in one representation, :class:`RecordBatch`: a columnar
struct-of-arrays view that the synthesizers build and the repro-cache
stores and loads.
A 1K–4K-rank all-to-all is tens of millions of records, so there is no
per-record object; the record-by-record reference the columns were
proven equal to lives with the differential tests.

Records are kept in one canonical order (sorted by
(rank, call, size, peer, region)): :meth:`RecordBatch.aggregate` sorts a
batch into it, and cache entries store it.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

# Point-to-point calls move payload between two distinct ranks and are the
# ones that land in the communication matrix.
PTP_CALLS = frozenset(
    {
        "MPI_Send",
        "MPI_Isend",
        "MPI_Ssend",
        "MPI_Recv",
        "MPI_Irecv",
        "MPI_Sendrecv",
    }
)

SEND_CALLS = frozenset({"MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Sendrecv"})
RECV_CALLS = frozenset({"MPI_Recv", "MPI_Irecv"})

COLLECTIVE_CALLS = frozenset(
    {
        "MPI_Allreduce",
        "MPI_Reduce",
        "MPI_Bcast",
        "MPI_Alltoall",
        "MPI_Alltoallv",
        "MPI_Allgather",
        "MPI_Gather",
        "MPI_Scatter",
        "MPI_Barrier",
    }
)

COMPLETION_CALLS = frozenset({"MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Test"})


class RecordBatch:
    """Columnar (struct-of-arrays) view of aggregated call records.

    ``calls`` is a lexicographically sorted tuple of call names and
    ``call_code`` indexes into it, so sorting by code is sorting by call
    name — the property canonical aggregation relies on. Timing columns
    (``total_time``/``min_time``/``max_time``, float64) are optional:
    batches come out of the synthesizers untimed and gain them when a
    :mod:`hfast.timing` model is applied.
    """

    __slots__ = (
        "rank",
        "call_code",
        "size",
        "peer",
        "count",
        "calls",
        "region",
        "total_time",
        "min_time",
        "max_time",
        "_call_totals",
    )

    def __init__(
        self,
        rank: np.ndarray,
        call_code: np.ndarray,
        size: np.ndarray,
        peer: np.ndarray,
        count: np.ndarray,
        calls: tuple[str, ...],
        region: str = "steady",
    ):
        if tuple(sorted(calls)) != tuple(calls):
            raise ValueError(f"calls table must be sorted, got {calls!r}")
        self.rank = rank
        self.call_code = call_code
        self.size = size
        self.peer = peer
        self.count = count
        self.calls = tuple(calls)
        self.region = region
        self.total_time: np.ndarray | None = None
        self.min_time: np.ndarray | None = None
        self.max_time: np.ndarray | None = None
        self._call_totals: dict[str, int] | None = None

    def __len__(self) -> int:
        return int(self.rank.shape[0])

    @property
    def has_times(self) -> bool:
        return self.total_time is not None

    def set_times(
        self, total: np.ndarray, tmin: np.ndarray, tmax: np.ndarray
    ) -> None:
        """Attach float64 timing columns (one entry per record)."""
        for arr in (total, tmin, tmax):
            if arr.shape != self.rank.shape:
                raise ValueError(
                    f"timing column shape {arr.shape} != batch shape {self.rank.shape}"
                )
        self.total_time = total
        self.min_time = tmin
        self.max_time = tmax

    @classmethod
    def from_parts(
        cls,
        parts: Iterable[tuple[str, Any, Any, Any, Any]],
        region: str = "steady",
    ) -> "RecordBatch":
        """Build a batch from (call, rank, size, peer, count) part tuples.

        Each part's rank/size/peer/count may be an array or a scalar;
        scalars broadcast to the part's rank length.
        """
        mats = []
        names: list[str] = []
        for call, rank, size, peer, count in parts:
            rank = np.asarray(rank)
            if rank.size == 0:
                continue
            mats.append(
                (
                    call,
                    rank,
                    np.broadcast_to(np.asarray(size), rank.shape),
                    np.broadcast_to(np.asarray(peer), rank.shape),
                    np.broadcast_to(np.asarray(count), rank.shape),
                )
            )
            if call not in names:
                names.append(call)
        calls = tuple(sorted(names))
        code_of = {c: i for i, c in enumerate(calls)}
        if not mats:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty.astype(np.int16), empty, empty, empty, calls, region)

        def col(i: int) -> np.ndarray:
            # int32 columns halve memory traffic on multi-million-record
            # batches; fall back to int64 only when values demand it.
            arr = np.concatenate([m[i] for m in mats])
            if arr.dtype != np.int32 and int(arr.max(initial=0)) < 2**31:
                arr = arr.astype(np.int32)
            return arr

        return cls(
            rank=col(1),
            call_code=np.concatenate(
                [np.full(m[1].shape, code_of[m[0]], dtype=np.int16) for m in mats]
            ),
            size=col(2),
            peer=col(3),
            count=col(4),
            calls=calls,
            region=region,
        )

    def _sort_order(self) -> np.ndarray:
        """Permutation realizing canonical (rank, call, size, peer) order.

        When the key fields are narrow enough, they pack into one int64
        whose numeric order equals the tuple order — a single-key argsort
        is ~3x cheaper than a 4-key lexsort at tens of millions of rows.
        """
        bits = [
            int(int(c.max(initial=0)).bit_length()) + 1
            for c in (self.rank, self.call_code, self.size, self.peer)
        ]
        if sum(bits) <= 62:
            key = self.rank.astype(np.int64)
            for col, width in (
                (self.call_code, bits[1]),
                (self.size, bits[2]),
                (self.peer, bits[3]),
            ):
                key = (key << width) | col.astype(np.int64)
            return np.argsort(key)
        return np.lexsort((self.peer, self.size, self.call_code, self.rank))

    def aggregate(self) -> "RecordBatch":
        """Merge duplicate keys and sort into canonical record order."""
        if len(self) == 0:
            return self
        order = self._sort_order()
        rank = self.rank[order]
        code = self.call_code[order]
        size = self.size[order]
        peer = self.peer[order]
        count = self.count[order]
        boundary = np.empty(len(self), dtype=bool)
        boundary[0] = True
        boundary[1:] = (
            (rank[1:] != rank[:-1])
            | (code[1:] != code[:-1])
            | (size[1:] != size[:-1])
            | (peer[1:] != peer[:-1])
        )
        if boundary.all():  # no duplicate keys: skip the group-reduce
            out = RecordBatch(rank, code, size, peer, count, self.calls, self.region)
            if self.has_times:
                out.set_times(
                    self.total_time[order], self.min_time[order], self.max_time[order]
                )
            return out
        idx = np.flatnonzero(boundary)
        out = RecordBatch(
            rank=rank[idx],
            call_code=code[idx],
            size=size[idx],
            peer=peer[idx],
            count=np.add.reduceat(count.astype(np.int64), idx),
            calls=self.calls,
            region=self.region,
        )
        if self.has_times:
            out.set_times(
                np.add.reduceat(self.total_time[order], idx),
                np.minimum.reduceat(self.min_time[order], idx),
                np.maximum.reduceat(self.max_time[order], idx),
            )
        return out

    def call_mask(self, names: frozenset[str] | set[str]) -> np.ndarray:
        """Boolean mask of records whose call is in ``names``."""
        wanted = np.array(
            [c in names for c in self.calls], dtype=bool
        )
        if not wanted.any():
            return np.zeros(len(self), dtype=bool)
        return wanted[self.call_code]

    @property
    def call_totals(self) -> dict[str, int]:
        """The per-call sum of ``count`` over calls with any, as one exact
        int64 pass, summed on first use: nothing changes a batch's
        ``count`` or calls after construction."""
        if self._call_totals is None:
            self._call_totals = self._sum_calls()
        return dict(self._call_totals)

    def _sum_calls(self) -> dict[str, int]:
        totals = np.zeros(len(self.calls), dtype=np.int64)
        np.add.at(totals, self.call_code, self.count.astype(np.int64, copy=False))
        return {call: t for call, t in zip(self.calls, totals.tolist()) if t}


class Trace:
    """A complete synthetic (or cached) application trace: one
    :class:`RecordBatch` plus the cell it belongs to."""

    def __init__(
        self,
        app: str,
        nranks: int,
        batch: RecordBatch,
        overrides: dict[str, Any] | None = None,
        timing: dict[str, Any] | None = None,
    ):
        self.app = app
        self.nranks = nranks
        self.batch = batch
        self.overrides = dict(overrides or {})
        # Timing-model descriptor ({"model", "seed", "params"}) once a
        # hfast.timing model has been applied; None on untimed traces.
        self.timing = dict(timing) if timing else None

    def ensure_batch(self) -> RecordBatch:
        """The trace's batch (every trace holds one)."""
        return self.batch
