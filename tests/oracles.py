"""Reference implementations the differential suites compare against.

``hfast`` keeps one record representation, the columns of
:class:`hfast.records.RecordBatch`, and runs one synthesis path, the
batch generators in :mod:`hfast.apps`, one timing path,
:meth:`hfast.timing.TimingModel.time_batch`, one matching path,
:func:`hfast.matcher.match_edges`, and one traffic representation, the
edge columns of :class:`hfast.matrix.CommMatrix`. This module keeps the
pure-Python and dense implementations they were proven byte-identical
to, written record by record, edge by edge and cell by cell so they are
slow but obviously correct:

- :class:`CommRecord`, one Python object per aggregated record, with
  :func:`from_records` and :func:`to_records` converting to and from the
  :class:`hfast.records.RecordBatch` columns that are ``hfast``'s only
  record representation;
- :func:`time_record` — the LogGP model evaluated one record at a time
  (:func:`mean_call_time`, :func:`jitter_hash`), the reference
  :meth:`hfast.timing.TimingModel.time_batch` is bit-identical to;
- :func:`synthesize` — per-record generators for the four apps, merged by
  :func:`aggregate` into canonical record order, timed by
  :func:`time_record` and columnarized by :func:`from_records`;
- :func:`to_document` — the format-3 JSON cache document writer. The
  repro-cache reads no JSON document; the invariant tests compare
  documents, and the stale-document test writes one where an entry
  belongs;
- :func:`to_entry` and :func:`from_entry` — a format-5 entry written and
  read from the documented layout alone, with no checks, so the
  rejection tests can write entries ``hfast`` would refuse;
- :func:`sort_edges` — columns in :func:`hfast.matcher.canonical_positions`
  order, the form :func:`greedy_seed` and the pass tests take;
- :func:`match_edges` — the sequential greedy seed (:func:`greedy_seed`),
  the dict/set selection state (:class:`MatchState`), the edge-by-edge
  swap filter (:func:`swap_candidates`) and swap pass (:func:`swap_pass`),
  and the loop augment pass with its version memo (:func:`augment_pass`),
  over :func:`hfast.matcher.canonical_positions`'s canonical order, with
  the same return type: the matched positions in the caller's columns,
  which :func:`circuits` turns into ``(src, dst)`` tuples. This module
  owns the dict state; :mod:`hfast.matcher` keeps its selection as arrays;
- dense ``nranks x nranks`` traffic planes (:class:`DenseMatrix`): the
  per-record :func:`reduce_matrix`, :func:`analyze_topology` over the
  symmetrized volume plane, and the evaluators :func:`evaluate_hybrid`
  and :func:`evaluate_temporal` with circuit masks and dense row sums
  (:func:`node_finish_times`). :func:`from_planes` and :func:`to_planes`
  convert between the two representations.

Evaluator- and pipeline-level comparisons swap the reference matcher in
with ``monkeypatch.setattr(hfast.interconnect, "match_edges",
oracles.match_edges)``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

import numpy as np

import hfast.matcher
from hfast.apps import _factor2, _factor3
from hfast.interconnect import (
    HybridEvaluation,
    InterconnectConfig,
    TemporalEvaluation,
    slice_edge_volumes,
)
from hfast.matcher import DEFAULT_MAX_PASSES, canon_key, canonical_positions
from hfast.matrix import CommMatrix
from hfast.records import COLLECTIVE_CALLS, RECV_CALLS, SEND_CALLS, RecordBatch, Trace
from hfast.timing import (
    _CALL_IDS,
    _CALL_OVERHEAD,
    _DEFAULT_OVERHEAD,
    _INV_2_53,
    _STREAM_MAX,
    _STREAM_MIN,
    _UNKNOWN_CALL_ID,
    DEFAULT_TIMING_SEED,
    TimingModel,
    mix64,
)
from hfast.topology import TopologyStats

# -- records ------------------------------------------------------------------


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
    def is_send(self) -> bool:
        return self.call in SEND_CALLS

    @property
    def is_recv(self) -> bool:
        return self.call in RECV_CALLS


def from_records(records: list[CommRecord]) -> RecordBatch:
    """Columnarize an already-canonical, single-region record list,
    timing included: int64 columns, an int16 ``call_code`` into the
    sorted calls table, float64 times."""
    regions = {r.region for r in records}
    if len(regions) > 1:
        raise ValueError(f"from_records needs a single region, got {sorted(regions)}")
    calls = tuple(sorted({r.call for r in records}))
    code_of = {c: i for i, c in enumerate(calls)}
    batch = RecordBatch(
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


def to_records(batch: RecordBatch) -> list[CommRecord]:
    """One record per batch row; an untimed batch's times read 0.0."""
    if batch.has_times:
        totals, mins, maxs = (c.tolist() for c in (batch.total_time, batch.min_time, batch.max_time))
    else:
        totals = mins = maxs = [0.0] * len(batch)
    return [
        CommRecord(r, batch.calls[c], s, p, batch.region, k, tt, tn, tx)
        for r, c, s, p, k, tt, tn, tx in zip(
            batch.rank.tolist(), batch.call_code.tolist(), batch.size.tolist(),
            batch.peer.tolist(), batch.count.tolist(), totals, mins, maxs,
        )
    ]


# -- timing -------------------------------------------------------------------


def jitter_hash(model: TimingModel, rank: int, peer: int, call: str) -> int:
    key = (
        ((rank & 0xFFFFFFF) << 28)
        ^ ((peer & 0xFFFFF) << 8)
        ^ _CALL_IDS.get(call, _UNKNOWN_CALL_ID)
    )
    return mix64(model._seed_base ^ key)


def mean_call_time(model: TimingModel, call: str, size: int, rank: int, peer: int) -> float:
    """Jittered mean time of one call of ``size`` bytes."""
    p = model.params
    wire = (p.L + p.g) + float(size) * p.G
    stages = model._stages if call in COLLECTIVE_CALLS else 1.0
    base = p.o * _CALL_OVERHEAD.get(call, _DEFAULT_OVERHEAD) + wire * stages
    u = (jitter_hash(model, rank, peer, call) >> 11) * _INV_2_53
    return base * (1.0 + p.jitter * (2.0 * u - 1.0))


def time_record(model: TimingModel, rec: CommRecord) -> tuple[float, float, float]:
    """The reference for one row of :meth:`hfast.timing.TimingModel.time_batch`:
    (total_time, min_time, max_time) of one aggregated record."""
    mean = mean_call_time(model, rec.call, rec.size, rec.rank, rec.peer)
    total = mean * float(rec.count)
    if rec.count <= 1:
        return total, mean, mean
    h = jitter_hash(model, rec.rank, rec.peer, rec.call)
    umin = (mix64(h ^ _STREAM_MIN) >> 11) * _INV_2_53
    umax = (mix64(h ^ _STREAM_MAX) >> 11) * _INV_2_53
    jit = model.params.jitter
    return total, mean * (1.0 - 0.5 * jit * umin), mean * (1.0 + 0.5 * jit * umax)


def time_records(model: TimingModel, records: list[CommRecord]) -> None:
    """Time each record in place, one at a time."""
    for rec in records:
        rec.total_time, rec.min_time, rec.max_time = time_record(model, rec)


# -- synthesis ----------------------------------------------------------------


def record_sort_key(r: CommRecord) -> tuple[int, str, int, int, str]:
    """Canonical record ordering: (rank, call, size, peer, region)."""
    return (r.rank, r.call, r.size, r.peer, r.region)


def aggregate(records: Iterable[CommRecord]) -> list[CommRecord]:
    """Merge records sharing (rank, call, size, peer, region), in
    canonical order — the order ``RecordBatch.aggregate`` produces."""
    merged: dict[tuple, CommRecord] = {}
    for r in records:
        key = record_sort_key(r)
        cur = merged.get(key)
        if cur is None:
            merged[key] = CommRecord(**r.to_dict())
        else:
            cur.count += r.count
            cur.total_time += r.total_time
            cur.min_time = min(cur.min_time, r.min_time) if cur.count else r.min_time
            cur.max_time = max(cur.max_time, r.max_time)
    return [merged[key] for key in sorted(merged)]


def ghost_pairs(nranks: int, dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """(rank, neighbour) pairs for a periodic Cartesian grid, both directions."""
    ndim = len(dims)
    strides = [1] * ndim
    for i in range(ndim - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    def coords(r: int) -> list[int]:
        return [(r // strides[i]) % dims[i] for i in range(ndim)]

    def to_rank(c: list[int]) -> int:
        return sum((c[i] % dims[i]) * strides[i] for i in range(ndim))

    pairs = []
    for r in range(nranks):
        c = coords(r)
        for axis in range(ndim):
            if dims[axis] == 1:
                continue
            for step in (-1, 1):
                cc = list(c)
                cc[axis] += step
                peer = to_rank(cc)
                if peer != r:
                    pairs.append((r, peer))
    return pairs


def gen_cactus(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    steps = int(ov.get("steps", 12))
    ghost_bytes = int(ov.get("ghost_bytes", 294912))
    recs: list[CommRecord] = []
    for r, peer in ghost_pairs(nranks, _factor3(nranks)):
        recs.append(CommRecord(r, "MPI_Isend", ghost_bytes, peer, count=steps))
        recs.append(CommRecord(r, "MPI_Irecv", ghost_bytes, peer, count=steps))
        recs.append(CommRecord(r, "MPI_Wait", 0, r, count=steps))
    for r in range(nranks):
        recs.append(CommRecord(r, "MPI_Waitall", 0, r, count=max(1, steps // 2)))
        if steps >= 6:
            recs.append(CommRecord(r, "MPI_Allreduce", 8, 0, count=max(1, steps // 12)))
    return recs


def gen_gtc(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    steps = int(ov.get("steps", 10))
    particle_bytes = int(ov.get("particle_bytes", 524288))
    recs: list[CommRecord] = []
    for r in range(nranks):
        up = (r + 1) % nranks
        down = (r - 1) % nranks
        if up != r:
            recs.append(CommRecord(r, "MPI_Isend", particle_bytes, up, count=steps))
            recs.append(CommRecord(r, "MPI_Irecv", particle_bytes, down, count=steps))
            recs.append(CommRecord(r, "MPI_Wait", 0, r, count=2 * steps))
        recs.append(CommRecord(r, "MPI_Allreduce", 4096, 0, count=max(1, steps // 2)))
    return recs


def gen_lbmhd(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    steps = int(ov.get("steps", 8))
    lattice_bytes = int(ov.get("lattice_bytes", 131072))
    recs: list[CommRecord] = []
    px, py = _factor2(nranks)

    def to_rank(ix: int, iy: int) -> int:
        return (ix % px) * py + (iy % py)

    # Axis neighbours, then skewed diagonals. The payload class follows
    # the offset, not the peer's position in the dedup order, or byte
    # conservation breaks on non-square grids.
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)]
    for r in range(nranks):
        ix, iy = r // py, r % py
        peers: list[tuple[int, int]] = []
        for j, (dx, dy) in enumerate(offsets):
            peer = to_rank(ix + dx, iy + dy)
            if peer != r and peer not in [p for p, _ in peers]:
                peers.append((peer, j))
        for peer, j in peers:
            size = lattice_bytes if j < 4 else lattice_bytes // 4
            recs.append(CommRecord(r, "MPI_Isend", size, peer, count=steps))
            recs.append(CommRecord(r, "MPI_Irecv", size, peer, count=steps))
        recs.append(CommRecord(r, "MPI_Waitall", 0, r, count=steps))
        recs.append(CommRecord(r, "MPI_Allreduce", 64, 0, count=max(1, steps // 4)))
    return recs


def gen_paratec(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    fft_cycles = int(ov.get("fft_cycles", 3))
    grid_bytes = int(ov.get("grid_bytes", 16384))
    recs: list[CommRecord] = []
    for r in range(nranks):
        for peer in range(nranks):
            if peer == r:
                continue
            recs.append(CommRecord(r, "MPI_Isend", grid_bytes, peer, count=fft_cycles))
            recs.append(CommRecord(r, "MPI_Irecv", grid_bytes, peer, count=fft_cycles))
        recs.append(CommRecord(r, "MPI_Waitall", 0, r, count=2 * fft_cycles))
        recs.append(CommRecord(r, "MPI_Allreduce", 8, 0, count=fft_cycles))
    return recs


GENERATORS: dict[str, Callable[[int, dict[str, Any]], list[CommRecord]]] = {
    "cactus": gen_cactus,
    "gtc": gen_gtc,
    "lbmhd": gen_lbmhd,
    "paratec": gen_paratec,
}


def synthesize(
    app: str,
    nranks: int,
    overrides: dict[str, Any] | None = None,
    timing_seed: int | None = DEFAULT_TIMING_SEED,
) -> Trace:
    """The reference for :func:`hfast.apps.synthesize`: aggregated
    records, timed one at a time unless ``timing_seed`` is None, then
    columnarized."""
    overrides = dict(overrides or {})
    records = aggregate(GENERATORS[app](nranks, overrides))
    timing = None
    if timing_seed is not None:
        model = TimingModel(app, nranks, seed=timing_seed)
        time_records(model, records)
        timing = model.to_dict()
    return Trace(app, nranks, from_records(records), overrides=overrides, timing=timing)


# -- JSON cache documents -----------------------------------------------------


def to_dicts(batch: RecordBatch) -> list[dict[str, Any]]:
    """Record dicts, in the field order ``CommRecord.to_dict`` uses."""
    return [r.to_dict() for r in to_records(batch)]


def to_document(trace: Trace) -> dict[str, Any]:
    """The format-3 JSON document the repro-cache wrote before format 4.

    Format 3 adds ``metadata.timing`` (the timing-model descriptor, null on
    untimed traces) to the format-2 schema; records carry real
    ``total_time``/``min_time``/``max_time`` values.
    """
    return {
        "format": 3,
        "metadata": {
            "app": trace.app,
            "nranks": trace.nranks,
            "overrides": dict(trace.overrides),
            "timing": dict(trace.timing) if trace.timing else None,
        },
        "call_totals": trace.batch.call_totals,
        "records": to_dicts(trace.batch),
    }


def to_entry(header: dict[str, Any], columns: Iterable[bytes | np.ndarray]) -> bytes:
    """A format-5 entry: the 8-byte little-endian length of ``header`` as
    canonical JSON, that JSON, then each column's bytes at the next
    8-byte boundary after zero padding. Nothing is checked: the header's
    column table is written as given."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = bytearray(len(head).to_bytes(8, "little") + head)
    for col in columns:
        out += bytes(-len(out) % 8) + bytes(col)
    return bytes(out)


def from_entry(raw: bytes) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """The header and the columns (writable copies) of a format-5 entry."""
    end = 8 + int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8:end])
    columns = {}
    for name, dtype, length in header["columns"]:
        start = -(-end // 8) * 8
        columns[name] = np.frombuffer(raw, dtype=dtype, count=length, offset=start).copy()
        end = start + columns[name].nbytes
    return header, columns


# -- matching -----------------------------------------------------------------


def greedy_seed(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[int]:
    """Sequential greedy over canonical-ordered edges.

    Accepts each edge in order whenever both endpoints still have
    capacity. Returns accepted edge indexes in canonical order.
    """
    cap_out = [bound] * nranks
    cap_in = [bound] * nranks
    chosen: list[int] = []
    for ei in range(len(w)):
        s, d = int(src[ei]), int(dst[ei])
        if cap_out[s] > 0 and cap_in[d] > 0:
            cap_out[s] -= 1
            cap_in[d] -= 1
            chosen.append(ei)
    return chosen


class MatchState:
    """Edge-index-keyed selection state of one match: the selected
    canonical edge ids as a set, and per node the set of its selected
    out-edges and in-edges."""

    __slots__ = ("src", "dst", "w", "bound", "sel", "out_sel", "in_sel")

    def __init__(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray, bound: int):
        self.src, self.dst, self.w = src, dst, w
        self.bound = bound
        self.sel: set[int] = set()
        self.out_sel: dict[int, set[int]] = {}
        self.in_sel: dict[int, set[int]] = {}

    def add(self, ei: int) -> None:
        self.sel.add(ei)
        s, d = int(self.src[ei]), int(self.dst[ei])
        self.out_sel.setdefault(s, set()).add(ei)
        self.in_sel.setdefault(d, set()).add(ei)

    def remove(self, ei: int) -> None:
        self.sel.discard(ei)
        s, d = int(self.src[ei]), int(self.dst[ei])
        self.out_sel[s].discard(ei)
        self.in_sel[d].discard(ei)

    def out_degree(self, node: int) -> int:
        return len(self.out_sel.get(node, ()))

    def in_degree(self, node: int) -> int:
        return len(self.in_sel.get(node, ()))

    def min_out(self, node: int) -> int:
        """Lightest selected egress edge at ``node`` (ties: lowest dst)."""
        return min(self.out_sel[node], key=lambda ei: (self.w[ei], self.dst[ei]))

    def min_in(self, node: int) -> int:
        """Lightest selected ingress edge at ``node`` (ties: lowest src)."""
        return min(self.in_sel[node], key=lambda ei: (self.w[ei], self.src[ei]))


class VersionedState(MatchState):
    """``MatchState`` plus monotonic per-node change counters.

    Every add/remove bumps both endpoints' counters, so a sum over a
    neighbourhood detects "any selection change here since I last
    looked" — what lets :func:`augment_pass` skip repeat failures.
    """

    __slots__ = ("versions",)

    def __init__(self, src: np.ndarray, dst: np.ndarray, w: np.ndarray, bound: int, nranks: int):
        super().__init__(src, dst, w, bound)
        self.versions: list[int] = [0] * nranks

    def add(self, ei: int) -> None:
        super().add(ei)
        self.versions[int(self.src[ei])] += 1
        self.versions[int(self.dst[ei])] += 1

    def remove(self, ei: int) -> None:
        super().remove(ei)
        self.versions[int(self.src[ei])] += 1
        self.versions[int(self.dst[ei])] += 1


def swap_candidates(state: MatchState) -> list[int]:
    """The swap filter edge by edge: unselected edges whose weight beats
    the lightest selected edge at each saturated endpoint, evaluated
    against the state at pass start."""
    lb_out: dict[int, float] = {}
    lb_in: dict[int, float] = {}
    for node, edges in state.out_sel.items():
        if len(edges) >= state.bound:
            lb_out[node] = float(state.w[state.min_out(node)])
    for node, edges in state.in_sel.items():
        if len(edges) >= state.bound:
            lb_in[node] = float(state.w[state.min_in(node)])
    cands: list[int] = []
    for ei in range(len(state.w)):
        if ei in state.sel:
            continue
        bound = lb_out.get(int(state.src[ei]), 0.0) + lb_in.get(int(state.dst[ei]), 0.0)
        if float(state.w[ei]) > bound:
            cands.append(ei)
    return cands


def swap_pass(state: MatchState, candidates: list[int]) -> bool:
    """1-for-k swaps: evict the lightest blockers when one edge pays for
    them, re-checking eligibility against the live state edge by edge."""
    improved = False
    bound = state.bound
    for ei in candidates:
        if ei in state.sel:
            continue
        s, d = int(state.src[ei]), int(state.dst[ei])
        victims: list[int] = []
        if state.out_degree(s) >= bound:
            victims.append(state.min_out(s))
        if state.in_degree(d) >= bound:
            victims.append(state.min_in(d))
        if float(state.w[ei]) > sum(float(state.w[v]) for v in victims):
            for v in victims:
                state.remove(v)
            state.add(ei)
            improved = True
    return improved


class AugmentMemo:
    """Per-match cache for :func:`augment_pass`.

    ``cands``/``nbrs`` are static for a given edge universe, so they are
    built on an edge's first attempt and reused by every later pass.
    ``stamps`` records, per edge, the neighbourhood version-sum at its
    last *failed* attempt: an attempt's outcome depends only on the
    selection state of edges incident to its endpoints and the degrees
    of their far nodes, all of which bump a version in ``nbrs`` when
    they change — so an unchanged sum proves the retry would fail
    identically and is skipped.
    """

    __slots__ = ("cands", "nbrs", "stamps", "order_key")

    def __init__(self, order_key: list[int]):
        self.cands: dict[int, list[int]] = {}
        self.nbrs: dict[int, list[int]] = {}
        self.stamps: dict[int, int] = {}
        #: (src, dst)-pair key per edge: the augment visit order.
        self.order_key = order_key


def augment_pass(
    state: VersionedState,
    out_adj: dict[int, list[int]],
    in_adj: dict[int, list[int]],
    memo: AugmentMemo,
) -> bool:
    """2-for-1 augments: drop one circuit when the freed endpoints can host
    a heavier *set* of replacements.

    Candidates are the edges incident to the dropped circuit's endpoints,
    visited in ascending canonical order — heaviest-first with the
    canonical tie-break for free. The scan simulates the replacement set
    against local degree deltas and commits only on improvement, so a
    failed attempt (the overwhelmingly common case) mutates nothing; the
    version stamps in ``memo`` then let later passes skip attempts whose
    neighbourhood has not changed since the failure.
    """
    improved = False
    bound = state.bound
    src, dst, w = state.src, state.dst, state.w
    versions = state.versions
    for ei in sorted(state.sel, key=memo.order_key.__getitem__):
        s, d = int(src[ei]), int(dst[ei])
        cands = memo.cands.get(ei)
        if cands is None:
            out_list, in_list = out_adj[s], in_adj[d]
            merged = set(out_list)
            merged.update(in_list)
            merged.discard(ei)
            memo.cands[ei] = cands = sorted(merged)
            nbr = {s, d}
            nbr.update(int(dst[c]) for c in out_list)
            nbr.update(int(src[c]) for c in in_list)
            memo.nbrs[ei] = sorted(nbr)
        vsum = 0
        for node in memo.nbrs[ei]:
            vsum += versions[node]
        if memo.stamps.get(ei) == vsum:
            continue
        wt = float(w[ei])
        sel = state.sel
        # Degrees as if ei were removed; candidate picks accumulate in
        # local deltas so nothing touches the real state until commit.
        s_out = state.out_degree(s) - 1
        d_in = state.in_degree(d) - 1
        out_delta: dict[int, int] = {}
        in_delta: dict[int, int] = {}
        picked: list[int] = []
        gained = 0.0
        for cand in cands:
            if cand in sel or cand in picked:
                continue
            if s_out >= bound and d_in >= bound:
                break
            cs, cd = int(src[cand]), int(dst[cand])
            out_ok = (
                s_out < bound
                if cs == s
                else state.out_degree(cs) + out_delta.get(cs, 0) < bound
            )
            in_ok = (
                d_in < bound
                if cd == d
                else state.in_degree(cd) + in_delta.get(cd, 0) < bound
            )
            if out_ok and in_ok:
                if cs == s:
                    s_out += 1
                else:
                    out_delta[cs] = out_delta.get(cs, 0) + 1
                if cd == d:
                    d_in += 1
                else:
                    in_delta[cd] = in_delta.get(cd, 0) + 1
                picked.append(cand)
                gained += float(w[cand])
        if gained > wt:
            state.remove(ei)
            for cand in picked:
                state.add(cand)
            improved = True
        else:
            memo.stamps[ei] = vsum
    return improved


def augmenter(src: np.ndarray, dst: np.ndarray, nranks: int) -> Callable[[VersionedState], bool]:
    """:func:`augment_pass` over one edge universe, as ``state -> improved``;
    the adjacency lists and the memo are built once and reused by every
    pass of the match."""
    out_adj: dict[int, list[int]] = {n: [] for n in range(nranks)}
    in_adj: dict[int, list[int]] = {n: [] for n in range(nranks)}
    for ei in range(len(src)):
        out_adj[int(src[ei])].append(ei)
        in_adj[int(dst[ei])].append(ei)
    memo = AugmentMemo((src * np.int64(max(1, nranks)) + dst).tolist())
    return lambda state: augment_pass(state, out_adj, in_adj, memo)


def sort_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw edge columns in canonical order, unmatchable edges dropped.
    Raises ``ValueError`` when a ``(src, dst)`` pair repeats."""
    pos = canonical_positions(src, dst, w, nranks)
    return (
        np.asarray(src, dtype=np.int64)[pos],
        np.asarray(dst, dtype=np.int64)[pos],
        np.asarray(w, dtype=np.float64)[pos],
    )


def match_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int, *, tie=None
) -> np.ndarray:
    """The reference for :func:`hfast.matcher.match_edges`, same signature
    and return type: ascending positions in the caller's columns. It
    accepts the caller's tie order and ignores it, ordering the columns
    from scratch."""
    pos = canonical_positions(src, dst, w, nranks)
    src = np.asarray(src, dtype=np.int64)[pos]
    dst = np.asarray(dst, dtype=np.int64)[pos]
    w = np.asarray(w, dtype=np.float64)[pos]
    if bound <= 0 or len(w) == 0:
        return np.empty(0, dtype=np.int64)
    state = VersionedState(src, dst, w, bound, nranks)
    for ei in greedy_seed(src, dst, w, nranks, bound):
        state.add(ei)
    augment = augmenter(src, dst, nranks)
    for _ in range(DEFAULT_MAX_PASSES):
        improved = swap_pass(state, swap_candidates(state))
        improved |= augment(state)
        if not improved:
            break
    return np.sort(pos[sorted(state.sel)])


def circuits(src: np.ndarray, dst: np.ndarray, positions) -> list[tuple[int, int]]:
    """Matched ``positions`` in the ``src``/``dst`` columns as the
    ``(src, dst)``-sorted list of circuit tuples."""
    positions = np.asarray(positions, dtype=np.int64)
    return sorted(zip(np.asarray(src)[positions].tolist(), np.asarray(dst)[positions].tolist()))


# -- dense traffic planes -----------------------------------------------------


@dataclass
class DenseMatrix:
    """Traffic as dense ``nranks x nranks`` planes, ``[src, dst]`` indexed."""

    nranks: int
    bytes_matrix: np.ndarray  # payload bytes
    msg_matrix: np.ndarray  # message count

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_matrix.sum())

    def nonzero_links(self) -> int:
        return int(np.count_nonzero(self.bytes_matrix))


def from_planes(bytes_m: np.ndarray, msg_m: np.ndarray) -> CommMatrix:
    """The :class:`hfast.matrix.CommMatrix` of two dense planes: one row
    per cell with bytes or messages, self-loops included."""
    bytes_m = np.asarray(bytes_m, dtype=np.int64)
    msg_m = np.asarray(msg_m, dtype=np.int64)
    src, dst = np.nonzero((bytes_m > 0) | (msg_m > 0))
    return CommMatrix(
        nranks=bytes_m.shape[0],
        src=src.astype(np.int64),
        dst=dst.astype(np.int64),
        bytes=bytes_m[src, dst],
        msgs=msg_m[src, dst],
    )


def to_planes(cm: CommMatrix) -> DenseMatrix:
    """Scatter a :class:`hfast.matrix.CommMatrix` into dense planes."""
    n = cm.nranks
    planes = []
    for col in (cm.bytes, cm.msgs):
        plane = np.zeros((n, n), dtype=np.int64)
        plane[cm.src, cm.dst] = col
        planes.append(plane)
    return DenseMatrix(n, planes[0], planes[1])


def reduce_matrix(batch: RecordBatch, nranks: int) -> DenseMatrix:
    """The reference for :func:`hfast.matrix.reduce_matrix`, record by
    record: send-side and receive-side planes, combined by elementwise max."""
    send_bytes = np.zeros((nranks, nranks), dtype=np.int64)
    send_msgs = np.zeros((nranks, nranks), dtype=np.int64)
    recv_bytes = np.zeros((nranks, nranks), dtype=np.int64)
    recv_msgs = np.zeros((nranks, nranks), dtype=np.int64)
    for r in to_records(batch):
        if r.size <= 0 or r.rank == r.peer:
            continue
        if r.is_send:
            send_bytes[r.rank, r.peer] += r.bytes_moved
            send_msgs[r.rank, r.peer] += r.count
        elif r.is_recv:
            recv_bytes[r.peer, r.rank] += r.bytes_moved
            recv_msgs[r.peer, r.rank] += r.count
    return DenseMatrix(
        nranks=nranks,
        bytes_matrix=np.maximum(send_bytes, recv_bytes),
        msg_matrix=np.maximum(send_msgs, recv_msgs),
    )


def analyze_topology(dm: DenseMatrix, ks: tuple[int, ...] = (1, 2, 4, 8, 16)) -> TopologyStats:
    """The reference for :func:`hfast.topology.analyze_topology`: degree
    and top-k concentration from the symmetrized dense volume plane."""
    volume = dm.bytes_matrix + dm.bytes_matrix.T
    np.fill_diagonal(volume, 0)
    degrees = (volume > 0).sum(axis=1)

    hist: dict[int, int] = {}
    for d in degrees:
        hist[int(d)] = hist.get(int(d), 0) + 1

    total = float(volume.sum())
    concentration: dict[int, float] = {}
    if total > 0:
        sorted_vol = np.sort(volume, axis=1)[:, ::-1]
        for k in ks:
            concentration[k] = float(sorted_vol[:, :k].sum()) / total
    else:
        concentration = {k: 0.0 for k in ks}

    return TopologyStats(
        nranks=dm.nranks,
        degrees=degrees,
        max_degree=int(degrees.max()) if dm.nranks else 0,
        avg_degree=float(degrees.mean()) if dm.nranks else 0.0,
        degree_histogram=hist,
        concentration=concentration,
    )


def canonical_edges(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matchable edges of a dense weight plane in canonical order:
    strictly-positive off-diagonal cells as ``(src, dst, w)`` columns."""
    src, dst = np.nonzero(weights > 0)
    keep = src != dst
    src, dst = src[keep].astype(np.int64), dst[keep].astype(np.int64)
    w = np.asarray(weights, dtype=np.float64)[src, dst]
    order = np.lexsort((canon_key(src, dst, weights.shape[0]), -w))
    return src[order], dst[order], w[order]


def greedy_circuits(weights: np.ndarray, nranks: int, bound: int) -> list[tuple[int, int]]:
    """Sequential canonical-order greedy assignment over a dense plane."""
    if bound <= 0:
        return []
    src, dst, w = canonical_edges(weights)
    return sorted((int(src[ei]), int(dst[ei])) for ei in greedy_seed(src, dst, w, nranks, bound))


def _matching_circuits(weights: np.ndarray, nranks: int, bound: int) -> list[tuple[int, int]]:
    src, dst, w = canonical_edges(weights)
    return circuits(src, dst, hfast.matcher.match_edges(src, dst, w, nranks, bound))


def node_finish_times(
    bytes_m: np.ndarray,
    msg_m: np.ndarray,
    circuit_mask: np.ndarray,
    config: InterconnectConfig,
) -> tuple[float, float]:
    """(hybrid, packet-only) fabric finish times for one dense traffic plane.

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


def _circuit_mask(nranks: int, circuits: list[tuple[int, int]]) -> np.ndarray:
    mask = np.zeros((nranks, nranks), dtype=bool)
    for s, d in circuits:
        mask[s, d] = True
    return mask


def evaluate_hybrid(
    dm: DenseMatrix, config: InterconnectConfig | None = None, strategy: str = "greedy"
) -> HybridEvaluation:
    """The reference for :func:`hfast.interconnect.evaluate_hybrid` over
    dense planes, with a circuit mask and dense row sums."""
    config = config or InterconnectConfig()
    ev = HybridEvaluation(config=config, strategy=strategy)
    total = dm.total_bytes
    if total == 0:
        ev.fully_provisionable = True
        return ev
    assign = _matching_circuits if strategy == "matching" else greedy_circuits
    ev.circuits = assign(dm.bytes_matrix, dm.nranks, config.circuits_per_node)
    mask = _circuit_mask(dm.nranks, ev.circuits)
    ev.circuit_bytes = int(dm.bytes_matrix[mask].sum())
    ev.packet_bytes = total - ev.circuit_bytes
    ev.coverage = ev.circuit_bytes / total
    ev.fully_provisionable = len(ev.circuits) == dm.nonzero_links()
    ev.hybrid_time, ev.packet_only_time = node_finish_times(
        dm.bytes_matrix, dm.msg_matrix, mask, config
    )
    if ev.hybrid_time > 0:
        ev.speedup = ev.packet_only_time / ev.hybrid_time
    return ev


def slice_traffic(
    dm: DenseMatrix, timesteps: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-timestep dense (bytes, msgs) planes: each link's shares from
    :func:`hfast.interconnect.slice_edge_volumes`, scattered back."""
    n = dm.nranks
    src, dst = np.nonzero((dm.bytes_matrix > 0) | (dm.msg_matrix > 0))
    eb, em = slice_edge_volumes(
        src, dst, dm.bytes_matrix[src, dst], dm.msg_matrix[src, dst], timesteps, seed
    )
    out = []
    for t in range(len(eb)):
        planes = []
        for share in (eb[t], em[t]):
            plane = np.zeros((n, n), dtype=np.int64)
            plane[src, dst] = share
            planes.append(plane)
        out.append((planes[0], planes[1]))
    return out


def evaluate_temporal(
    dm: DenseMatrix, config: InterconnectConfig | None = None
) -> TemporalEvaluation:
    """The reference for :func:`hfast.interconnect.evaluate_temporal`:
    dense slices, a dense keep-bonus plane per step, dense finish times."""
    config = config or InterconnectConfig()
    ev = TemporalEvaluation(config=config, timesteps=config.timesteps)
    total = dm.total_bytes
    if total == 0:
        return ev
    static = evaluate_hybrid(dm, config)
    ev.static_coverage = static.coverage
    ev.static_speedup = static.speedup
    n = dm.nranks
    keep_bonus = config.reconfig_cost * config.circuit_bandwidth
    prev = np.zeros((n, n), dtype=bool)
    have_prev = False
    for t, (bytes_t, msgs_t) in enumerate(slice_traffic(dm, config.timesteps, config.slice_seed)):
        w = bytes_t.astype(np.float64)
        if have_prev and keep_bonus > 0.0:
            w[prev & (w > 0)] += keep_bonus
        circuits = _matching_circuits(w, n, config.circuits_per_node)
        mask = _circuit_mask(n, circuits)
        changes = int(np.count_nonzero(mask & ~prev)) if have_prev else 0
        step_circuit_bytes = int(bytes_t[mask].sum())
        ev.circuit_bytes += step_circuit_bytes
        step_hybrid, step_packet = node_finish_times(bytes_t, msgs_t, mask, config)
        ev.hybrid_time += step_hybrid + changes * config.reconfig_cost
        ev.packet_only_time += step_packet
        ev.n_reconfigs += changes
        step_total = int(bytes_t.sum())
        ev.per_step.append(
            {
                "t": t,
                "n_circuits": len(circuits),
                "changes": changes,
                "coverage": round(step_circuit_bytes / step_total, 4) if step_total else 0.0,
            }
        )
        if circuits:
            prev = mask
            have_prev = True
    ev.packet_bytes = total - ev.circuit_bytes
    ev.coverage = ev.circuit_bytes / total
    if ev.hybrid_time > 0:
        ev.speedup = ev.packet_only_time / ev.hybrid_time
    return ev
