"""Reference implementations the differential suites compare against.

``hfast`` runs one synthesis path, the ``RecordBatch`` generators in
:mod:`hfast.apps`, and one matching path, :func:`hfast.matcher.match_edges`.
This module keeps the pure-Python implementations they were proven
byte-identical to, written record by record and edge by edge so they are
slow but obviously correct:

- :func:`synthesize` — per-record generators for the four apps, merged by
  :func:`aggregate` into canonical record order and timed by the same
  LogGP model;
- :func:`match_edges` — the sequential greedy seed (:func:`greedy_seed`),
  the dict-based swap filter (:func:`swap_candidates`) and the loop
  augment pass with its version memo (:func:`augment_pass`), built on
  :func:`hfast.matcher.sort_edges`, ``_MatchState`` and ``_swap_pass``.

Evaluator- and pipeline-level comparisons swap the reference matcher in
with ``monkeypatch.setattr(hfast.interconnect, "match_edges",
oracles.match_edges)``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from hfast.apps import _factor2, _factor3
from hfast.matcher import DEFAULT_MAX_PASSES, _MatchState, _swap_pass, sort_edges
from hfast.records import CommRecord, Trace
from hfast.timing import DEFAULT_TIMING_SEED, apply_timing

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
    """The reference for :func:`hfast.apps.synthesize`: an aggregated
    record-list trace, timed unless ``timing_seed`` is None."""
    overrides = dict(overrides or {})
    records = aggregate(GENERATORS[app](nranks, overrides))
    trace = Trace(app=app, nranks=nranks, records=records, overrides=overrides)
    if timing_seed is not None:
        apply_timing(trace, seed=timing_seed)
    return trace


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


class VersionedState(_MatchState):
    """``_MatchState`` plus monotonic per-node change counters.

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


def swap_candidates(state: _MatchState) -> list[int]:
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


def match_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[tuple[int, int]]:
    """The reference for :func:`hfast.matcher.match_edges`, same signature."""
    src, dst, w = sort_edges(src, dst, w, nranks)
    if bound <= 0 or len(w) == 0:
        return []
    state = VersionedState(src, dst, w, bound, nranks)
    for ei in greedy_seed(src, dst, w, nranks, bound):
        state.add(ei)
    augment = augmenter(src, dst, nranks)
    for _ in range(DEFAULT_MAX_PASSES):
        improved = _swap_pass(state, swap_candidates(state))
        improved |= augment(state)
        if not improved:
            break
    return sorted((int(src[ei]), int(dst[ei])) for ei in state.sel)
