"""Trace record model.

A trace is a list of aggregated per-rank MPI call records, the same shape
IPM emits after reduction: one record per distinct
(rank, call, message size, peer, region) tuple with a repeat count and
timing aggregates.

Two representations coexist:

- :class:`CommRecord` — one Python object per aggregated record; what
  legacy JSON cache documents load as.
- :class:`RecordBatch` — a columnar struct-of-arrays view, what the
  synthesizers build and the repro-cache stores, where a 1K–4K-rank
  all-to-all would otherwise mean tens of millions of Python objects.

Records are kept in one canonical order (sorted by
(rank, call, size, peer, region)): :meth:`RecordBatch.aggregate` sorts a
batch into it, and a legacy document loaded back as records is
columnarized in it (:meth:`RecordBatch.from_records`), so the analysis
sees the same columns either way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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


@dataclass
class CommRecord:
    """One aggregated IPM-style call record."""

    rank: int
    call: str
    size: int
    peer: int
    region: str = "steady"
    count: int = 1
    total_time: float = 0.0
    min_time: float = 0.0
    max_time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CommRecord":
        return cls(
            rank=int(d["rank"]),
            call=str(d["call"]),
            size=int(d["size"]),
            peer=int(d["peer"]),
            region=str(d.get("region", "steady")),
            count=int(d.get("count", 1)),
            total_time=float(d.get("total_time", 0.0)),
            min_time=float(d.get("min_time", 0.0)),
            max_time=float(d.get("max_time", 0.0)),
        )

    @property
    def bytes_moved(self) -> int:
        return self.size * self.count

    @property
    def is_ptp(self) -> bool:
        return self.call in PTP_CALLS

    @property
    def is_send(self) -> bool:
        return self.call in SEND_CALLS

    @property
    def is_recv(self) -> bool:
        return self.call in RECV_CALLS

    @property
    def is_collective(self) -> bool:
        return self.call in COLLECTIVE_CALLS


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
    def from_records(cls, records: list["CommRecord"]) -> "RecordBatch":
        """Columnarize an already-canonical record list (timing included).

        Used when a legacy JSON cache document loads back as record
        dicts: analysis paths then run the same vectorized code — and
        produce the same float64 reductions — as a freshly synthesized
        batch. Records must share one region (all cache documents do).
        """
        regions = {r.region for r in records}
        if len(regions) > 1:
            raise ValueError(f"from_records needs a single region, got {sorted(regions)}")
        calls = tuple(sorted({r.call for r in records}))
        code_of = {c: i for i, c in enumerate(calls)}
        batch = cls(
            rank=np.array([r.rank for r in records], dtype=np.int64),
            call_code=np.array([code_of[r.call] for r in records], dtype=np.int16),
            size=np.array([r.size for r in records], dtype=np.int64),
            peer=np.array([r.peer for r in records], dtype=np.int64),
            count=np.array([r.count for r in records], dtype=np.int64),
            calls=calls,
            region=next(iter(regions)) if records else "steady",
        )
        batch.set_times(
            np.array([r.total_time for r in records], dtype=np.float64),
            np.array([r.min_time for r in records], dtype=np.float64),
            np.array([r.max_time for r in records], dtype=np.float64),
        )
        return batch

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
        int64 pass."""
        totals = np.zeros(len(self.calls), dtype=np.int64)
        np.add.at(totals, self.call_code, self.count.astype(np.int64, copy=False))
        return {call: t for call, t in zip(self.calls, totals.tolist()) if t}

    def to_records(self) -> list[CommRecord]:
        if self.has_times:
            times = (self.total_time, self.min_time, self.max_time)
            totals, mins, maxs = (c.tolist() for c in times)
        else:
            totals = mins = maxs = [0.0] * len(self)
        return [
            CommRecord(
                rank=r,
                call=self.calls[c],
                size=s,
                peer=p,
                region=self.region,
                count=n,
                total_time=tt,
                min_time=tn,
                max_time=tx,
            )
            for r, c, s, p, n, tt, tn, tx in zip(
                self.rank.tolist(),
                self.call_code.tolist(),
                self.size.tolist(),
                self.peer.tolist(),
                self.count.tolist(),
                totals,
                mins,
                maxs,
            )
        ]


class Trace:
    """A complete synthetic (or cached) application trace.

    Holds either a materialized record list, a columnar batch, or both;
    ``records`` materializes lazily from the batch so vectorized analysis
    paths never pay for millions of per-record Python objects.
    """

    def __init__(
        self,
        app: str,
        nranks: int,
        records: list[CommRecord] | None = None,
        overrides: dict[str, Any] | None = None,
        batch: RecordBatch | None = None,
        timing: dict[str, Any] | None = None,
    ):
        if records is None and batch is None:
            raise ValueError("Trace needs records or a batch")
        self.app = app
        self.nranks = nranks
        self.overrides = dict(overrides or {})
        self.batch = batch
        self._records = records
        # Timing-model descriptor ({"model", "seed", "params"}) once a
        # hfast.timing model has been applied; None on untimed traces.
        self.timing = dict(timing) if timing else None

    @property
    def records(self) -> list[CommRecord]:
        if self._records is None:
            assert self.batch is not None
            self._records = self.batch.to_records()
        return self._records

    def ensure_batch(self) -> RecordBatch:
        """Columnarize the record list if no batch exists yet.

        Returns the batch, so analysis paths run vectorized — with
        identical reductions — whether the trace was freshly synthesized,
        loaded from a cache entry (which carries its batch) or loaded from
        a legacy JSON document (a record list). A multi-region record
        list raises ``ValueError``; the cache validator rejects such
        documents.
        """
        if self.batch is None:
            self.batch = RecordBatch.from_records(self._records)
        return self.batch

    @property
    def call_totals(self) -> dict[str, int]:
        if self.batch is not None:
            return self.batch.call_totals
        totals: dict[str, int] = {}
        for r in self.records:
            totals[r.call] = totals.get(r.call, 0) + r.count
        return dict(sorted(totals.items()))

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trace":
        """Rebuild a trace from a legacy format-2/3 JSON cache document."""
        meta = doc["metadata"]
        return cls(
            app=str(meta["app"]),
            nranks=int(meta["nranks"]),
            overrides=dict(meta.get("overrides", {})),
            records=[CommRecord.from_dict(r) for r in doc["records"]],
            timing=meta.get("timing"),
        )
