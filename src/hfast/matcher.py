"""Degree-constrained max-weight matching over columnar edge arrays.

:func:`match_edges` is the one matching path. It runs over a
structure-of-arrays edge list (``src``/``dst``/``w`` columns) and keeps
one match's selection once, as arrays indexed by canonical edge id (an
edge's position after :func:`sort_edges`): a ``sel`` mask and per-node
``outdeg``/``indeg`` counts, held by :class:`_State` next to the edge
list compressed by source and by destination. The greedy seed, the swap
pass and the augment pass all read and write those arrays in place.

The greedy seed runs as b-Suitor-style rounds (accept every edge that is
within the remaining capacity at *both* endpoints among surviving edges,
drop edges touching saturated nodes, repeat), which produces exactly the
sequential greedy result under the canonical total order. Improvement
passes follow: a 1-for-k swap pass whose candidates come from a
vectorized lower-bound filter (a per-node minimum of selected weights),
and a 2-for-1 augment pass that evaluates every attempt from per-node
tables (:func:`_augment_pass_vector`) instead of walking candidates edge
by edge. :class:`IncrementalMatcher` keeps a persistent edge universe for
re-matching evolving weights; its result is always byte-identical to
matching from scratch.

Every pass works in one canonical edge order — descending weight, ties
in *stripe* order ``((dst - src) mod n, src, dst)``. The pure-Python
reference matcher (sequential greedy seed, dict/set selection state and
swap pass, loop augment pass) lives in ``tests/oracles.py``;
``tests/test_matcher_augment.py`` pins the swap and augment passes
against it from identical states, and ``tests/test_matcher_properties.py``
and ``tests/test_matcher_differential.py`` pin whole matches against the
reference. Edge lists hold each ``(src, dst)`` pair at most once;
:func:`sort_edges` and :class:`IncrementalMatcher` reject a repeat.
The stripe tie-break is a Latin-square round-robin: on tie-heavy
traffic (a uniform all-to-all) each stripe is a perfect permutation, so
greedy saturates every endpoint evenly instead of stranding capacity
the way pair-lexicographic order does.

Self-loops are never matched (a circuit from a node to itself is
physically meaningless — loopback traffic stays on the packet fabric),
zero- and negative-weight edges are never matched, and a degree bound of
zero yields an empty matching. No node can reach degree ``nranks``, so a
larger bound is clamped to ``nranks``: it selects the same circuits.
"""

from __future__ import annotations

import numpy as np

#: Improvement rounds (one swap pass plus one augment pass each) a match
#: runs before it stops, unless a round improves nothing first.
DEFAULT_MAX_PASSES = 8


def canon_key(src: np.ndarray, dst: np.ndarray, nranks: int) -> np.ndarray:
    """Scalar tie-break key encoding ``((dst - src) mod n, src, dst)``.

    Fits int64 up to ~2M ranks (n**3 < 2**63); self-loops are excluded
    before this is ever computed, so the stripe component is in [1, n-1].
    """
    n = np.int64(max(1, nranks))
    stripe = (dst - src) % n
    return stripe * n * n + src * n + dst


def sort_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonically order raw edge columns, dropping unmatchable edges.

    Raises ``ValueError`` when a ``(src, dst)`` pair repeats.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    _reject_repeated_pairs(np.sort(src * np.int64(max(1, nranks)) + dst))
    keep = (w > 0) & (src != dst)
    src, dst, w = src[keep], dst[keep], w[keep]
    order = np.lexsort((canon_key(src, dst, nranks), -w))
    return src[order], dst[order], w[order]


def _reject_repeated_pairs(sorted_pairs: np.ndarray) -> None:
    """The augment pass is exact only on edge lists that hold each
    ``(src, dst)`` pair at most once; raise ``ValueError`` on a sorted
    pair key that repeats."""
    if np.any(sorted_pairs[1:] == sorted_pairs[:-1]):
        raise ValueError("edge list repeats a (src, dst) pair; each pair may appear at most once")


# -- greedy seed --------------------------------------------------------------


def _group_rank(values: np.ndarray) -> np.ndarray:
    """0-based occurrence rank of each element within its value group.

    ``values`` is visited in array order; the i-th occurrence of a value
    gets rank i. Vectorized via a stable sort and run-length offsets.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    run_start = np.empty(len(values), dtype=bool)
    if len(values):
        run_start[0] = True
        run_start[1:] = sorted_vals[1:] != sorted_vals[:-1]
    idx = np.arange(len(values), dtype=np.int64)
    start_of_run = np.maximum.accumulate(np.where(run_start, idx, 0))
    ranks_sorted = idx - start_of_run
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def greedy_seed_vector(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[int]:
    """Greedy seed as b-Suitor-style rounds over canonical-ordered edges.

    Each round accepts every surviving edge whose rank among surviving
    edges at *both* endpoints fits the remaining capacity there — a
    superset-free subset of what the sequential scan accepts — then
    discards edges touching saturated endpoints. Under a strict total
    order this converges to exactly the sequential greedy matching
    (Khan et al., the b-Suitor equivalence); the property suite pins the
    equality against the sequential scan in ``tests/oracles.py`` anyway.
    Returns accepted edge indexes in canonical order.
    """
    bound = min(bound, nranks)
    if bound <= 0 or len(w) == 0:
        return []
    cap_out = np.full(nranks, bound, dtype=np.int64)
    cap_in = np.full(nranks, bound, dtype=np.int64)
    alive = np.arange(len(w), dtype=np.int64)
    chosen: list[np.ndarray] = []
    while alive.size:
        s, d = src[alive], dst[alive]
        acc = (_group_rank(s) < cap_out[s]) & (_group_rank(d) < cap_in[d])
        took = alive[acc]
        if not took.size:  # cannot happen (first edge always accepted)
            break
        chosen.append(took)
        cap_out -= np.bincount(src[took], minlength=nranks)
        cap_in -= np.bincount(dst[took], minlength=nranks)
        rest = alive[~acc]
        rest = rest[(cap_out[src[rest]] > 0) & (cap_in[dst[rest]] > 0)]
        alive = rest
    if not chosen:
        return []
    return np.sort(np.concatenate(chosen)).tolist()


# -- the match state and its improvement passes -------------------------------


def _csr(keys: np.ndarray, nranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Compressed rows grouping positions ``0..len(keys)-1`` by key.

    Row ``k`` is ``idx[ptr[k]:ptr[k + 1]]``, in ascending position order.
    """
    ptr = np.zeros(nranks + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nranks), out=ptr[1:])
    return ptr, np.argsort(keys, kind="stable")


def _rows(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions covered by compressed ``rows``, concatenated in order, and
    the slot in ``rows`` each position came from."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    slot = np.repeat(np.arange(len(rows)), lens)
    flat = np.arange(len(slot)) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return flat, slot


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by sorting. A bare ``np.unique`` would build
    a hash table instead, whose first use alone adds 0.2–1.6 MB to the
    process's peak RSS."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class _State:
    """One match: its canonical edge columns and bound, static per-node
    rows, and the selection, stored once.

    The rows are the edge list compressed by source and by destination
    (each row in canonical order, so by non-increasing weight). ``pair``
    is the ``(src, dst)`` key that fixes the augment pass's visit order,
    ``w_pad`` the weight column padded with a 0.0 that the "no edge"
    index ``len(w)`` reads, and ``out_max``/``in_max`` the largest out-
    and in-degree. The selection is the ``sel`` mask over canonical edges
    plus its per-node counts ``outdeg``/``indeg``; the swap and augment
    passes read and write these three arrays in place.
    """

    __slots__ = (
        "src", "dst", "w", "bound", "pair", "out_ptr", "out_idx", "in_ptr", "in_idx",
        "w_pad", "out_max", "in_max", "sel", "outdeg", "indeg",
    )

    def __init__(
        self, src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int, selected
    ):
        self.src, self.dst, self.w, self.bound = src, dst, w, bound
        self.pair = src * np.int64(max(1, nranks)) + dst
        self.out_ptr, self.out_idx = _csr(src, nranks)
        self.in_ptr, self.in_idx = _csr(dst, nranks)
        self.w_pad = np.append(w, 0.0)
        self.out_max = int(np.diff(self.out_ptr).max(initial=0))
        self.in_max = int(np.diff(self.in_ptr).max(initial=0))
        self.sel = np.zeros(len(w), dtype=bool)
        self.sel[selected] = True
        self.outdeg = np.bincount(src[self.sel], minlength=nranks)
        self.indeg = np.bincount(dst[self.sel], minlength=nranks)


def _swap_candidates(state: _State) -> list[int]:
    """Canonically-ordered edges worth visiting in a 1-for-k swap pass.

    An unselected edge can only displace blockers if its weight beats the
    sum of the lightest selected edge at each saturated endpoint: a
    per-node minimum of selected weights, zero at unsaturated nodes. One
    array expression evaluates that filter. The filter is exact at pass
    start, so skipped edges cannot improve the matching unless an earlier
    swap in the same pass changes the state — and any such late-blooming
    candidate is picked up by the next pass (``improved`` stays True).
    """
    w, sel = state.w, state.sel
    bounds = []
    for ends, deg in ((state.src, state.outdeg), (state.dst, state.indeg)):
        lightest = np.full(len(deg), np.inf)
        np.minimum.at(lightest, ends[sel], w[sel])
        bounds.append(np.where(deg >= state.bound, lightest, 0.0))
    mask = w > bounds[0][state.src] + bounds[1][state.dst]
    return np.flatnonzero(mask & ~sel).tolist()


def _lightest(state: _State, ptr: np.ndarray, idx: np.ndarray, node: int, far: np.ndarray) -> int:
    """The lightest selected edge in ``node``'s row; the row runs by
    non-increasing weight, and ties go to the lowest ``far`` end."""
    row = idx[ptr[node] : ptr[node + 1]]
    row = row[state.sel[row]]
    light = row[state.w[row] == state.w[row[-1]]]
    return int(light[np.argmin(far[light])])


def _swap_pass(state: _State, candidates: list[int]) -> bool:
    """1-for-k swaps: evict the lightest blockers when one edge pays for them.

    Sequential apply loop — eligibility is re-checked against the live
    state, so any caller that passes the same candidate list makes the
    same sequence of moves. A blocker is the lightest selected out-edge
    of a saturated source (ties: lowest dst) or in-edge of a saturated
    destination (ties: lowest src).
    """
    src, dst, w, sel, bound = state.src, state.dst, state.w, state.sel, state.bound
    outdeg, indeg = state.outdeg, state.indeg
    improved = False
    for ei in candidates:
        s, d = int(src[ei]), int(dst[ei])
        victims: list[int] = []
        if outdeg[s] >= bound:
            victims.append(_lightest(state, state.out_ptr, state.out_idx, s, dst))
        if indeg[d] >= bound:
            victims.append(_lightest(state, state.in_ptr, state.in_idx, d, src))
        if float(w[ei]) > sum(float(w[v]) for v in victims):
            for v in victims:
                sel[v] = False
                outdeg[src[v]] -= 1
                indeg[dst[v]] -= 1
            sel[ei] = True
            outdeg[s] += 1
            indeg[d] += 1
            improved = True
    return improved


#: Table cells one batch of :func:`_augment_pass_vector` attempts may
#: span, so the pick arrays stay a few MB however many attempts there are.
_ATTEMPT_CELLS = 1 << 16


def _augment_pass_vector(state: _State) -> bool:
    """2-for-1 augments: drop one circuit when the freed endpoints can host
    a heavier *set* of replacements.

    The pass visits selected edges in ``(src, dst)`` order. An attempt
    on a selected ``(s, d)`` never mixes its two sides (edge pairs are
    unique): it takes the first ``bound - outdeg(s) + 1`` edges
    ``(s, x)`` that are unselected with ``indeg(x) < bound``, and the
    first ``bound - indeg(d) + 1`` edges ``(y, d)`` that are unselected
    with ``outdeg(y) < bound``, and commits when their weights sum past
    ``w(s, d)``. So each node keeps an *out-row* and an *in-row* (its
    first ``bound`` such edges in canonical order), and an attempt is
    two row lookups plus a sum. The sum runs over the picks in ascending
    canonical index with ``cumsum`` — sequential, like the reference
    loop's ``+=`` in ``tests/oracles.py`` — never ``sum``, whose
    pairwise order differs. A row never holds more edges than its node
    has, so the tables are no wider than the largest degree however
    large ``bound`` is, and attempts are evaluated in batches of at most
    ``_ATTEMPT_CELLS`` table cells.

    Every attempt is evaluated against the pass-start state; commits are
    then applied to the selection in visit order, and each commit
    refreshes only the rows it changed and re-evaluates only the later
    attempts that read them.
    """
    src, dst, w, bound = state.src, state.dst, state.w, state.bound
    sel, outdeg, indeg = state.sel, state.outdeg, state.indeg
    visit = np.flatnonzero(sel)
    if not visit.size:
        return False
    n = len(outdeg)
    none = len(w)
    visit = visit[np.argsort(state.pair[visit])]
    by_src, _ = _csr(src[visit], n)  # visit is sorted by src: rows are ranges
    by_dst, by_dst_idx = _csr(dst[visit], n)
    out_rows = np.full((n, min(bound, state.out_max)), none, dtype=np.int64)
    in_rows = np.full((n, min(bound, state.in_max)), none, dtype=np.int64)
    out_cols = np.arange(out_rows.shape[1])
    in_cols = np.arange(in_rows.shape[1])
    batch = max(1, _ATTEMPT_CELLS // (len(out_cols) + len(in_cols)))

    def refill(table, nodes, ptr, idx, far, far_deg):
        flat, slot = _rows(ptr, nodes)
        edges = idx[flat]
        ok = ~sel[edges] & (far_deg[far[edges]] < bound)
        edges, slot = edges[ok], slot[ok]
        rank = np.arange(len(slot)) - np.searchsorted(slot, slot)
        keep = rank < table.shape[1]
        table[nodes] = none
        table[nodes[slot[keep]], rank[keep]] = edges[keep]

    def refill_out(nodes):
        refill(out_rows, nodes, state.out_ptr, state.out_idx, dst, indeg)

    def refill_in(nodes):
        refill(in_rows, nodes, state.in_ptr, state.in_idx, src, outdeg)

    def commits(pos):
        gains = np.empty(len(pos), dtype=bool)
        for lo in range(0, len(pos), batch):
            e = visit[pos[lo : lo + batch]]
            s, d = src[e], dst[e]
            picks = np.concatenate(
                (
                    np.where(out_cols < (bound + 1 - outdeg[s])[:, None], out_rows[s], none),
                    np.where(in_cols < (bound + 1 - indeg[d])[:, None], in_rows[d], none),
                ),
                axis=1,
            )
            picks.sort(axis=1)
            gains[lo : lo + batch] = np.cumsum(state.w_pad[picks], axis=1)[:, -1] > w[e]
        return gains

    every = np.arange(n)
    refill_out(every)
    refill_in(every)
    ok = commits(np.arange(len(visit)))
    improved = False
    i = -1
    while True:
        hits = np.flatnonzero(ok[i + 1 :])
        if not hits.size:
            return improved
        i += 1 + int(hits[0])
        e = int(visit[i])
        s, d = int(src[e]), int(dst[e])
        po = out_rows[s, : bound + 1 - outdeg[s]]
        po = po[po != none]
        pi = in_rows[d, : bound + 1 - indeg[d]]
        pi = pi[pi != none]
        improved = True
        sel[e] = False
        sel[po] = True
        sel[pi] = True
        xs, ys = dst[po], src[pi]  # each distinct: edge pairs are unique
        outdeg[s] += len(po) - 1
        outdeg[ys] += 1
        indeg[d] += len(pi) - 1
        indeg[xs] += 1
        # An out-row reads its node's out-edge selection and the in-degree
        # at each far end; an in-row is the mirror image.
        in_changed = np.append(xs, d)
        out_changed = np.append(ys, s)
        out_nodes = _distinct(
            np.concatenate(
                (out_changed, src[state.in_idx[_rows(state.in_ptr, in_changed)[0]]])
            )
        )
        in_nodes = _distinct(
            np.concatenate(
                (in_changed, dst[state.out_idx[_rows(state.out_ptr, out_changed)[0]]])
            )
        )
        refill_out(out_nodes)
        refill_in(in_nodes)
        later = np.concatenate(
            (_rows(by_src, out_nodes)[0], by_dst_idx[_rows(by_dst, in_nodes)[0]])
        )
        later = _distinct(later[later > i])
        if later.size:
            ok[later] = commits(later)


def _match_sorted(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[tuple[int, int]]:
    """Match canonically-sorted edge columns."""
    bound = min(bound, nranks)
    if bound <= 0 or len(w) == 0:
        return []
    seed = greedy_seed_vector(src, dst, w, nranks, bound)
    state = _State(src, dst, w, nranks, bound, seed)
    for _ in range(DEFAULT_MAX_PASSES):
        improved = _swap_pass(state, _swap_candidates(state))
        improved |= _augment_pass_vector(state)
        if not improved:
            break
    return circuit_list(src, dst, np.flatnonzero(state.sel))


def circuit_list(src: np.ndarray, dst: np.ndarray, edges) -> list[tuple[int, int]]:
    """Edges ``edges`` as the ``(src, dst)``-sorted list of tuples the
    interconnect evaluators consume; pairs are unique, so the order is
    total."""
    s, d = src[edges], dst[edges]
    order = np.lexsort((d, s))
    return list(zip(s[order].tolist(), d[order].tolist()))


def match_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[tuple[int, int]]:
    """Degree-constrained max-weight matching over edge columns.

    Returns the selected circuits as a ``(src, dst)``-sorted list of
    tuples — the exact shape the interconnect evaluators consume. Use
    :class:`IncrementalMatcher` to re-match one edge universe step after
    step. Each ``(src, dst)`` pair may appear at most once: the augment
    pass is exact only on such lists, so a repeat raises ``ValueError``.
    """
    return _match_sorted(*sort_edges(src, dst, w, nranks), nranks, bound)


# -- incremental re-matching --------------------------------------------------


class IncrementalMatcher:
    """Re-match evolving weights over a persistent edge universe.

    Construct once with the fixed link structure (``src``/``dst``
    columns, e.g. the rows of a :class:`hfast.matrix.CommMatrix`; a
    repeated pair raises ``ValueError``), then call
    :meth:`rematch` with a full weight vector per
    timestep. Only edges whose weight changed since the previous step
    are re-seeded:

    - no changes → the cached assignment is returned outright;
    - changes that preserve the canonical order → the cached sort is
      reused and only the match itself re-runs;
    - anything else → full canonical re-sort + match.

    Every path produces a result byte-identical to matching the same
    weights from scratch; the delta bookkeeping is observable through
    :attr:`stats` for benchmarks and reports.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, nranks: int, bound: int):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        order = np.lexsort((dst, src))  # storage order: (src, dst) ascending
        self.src, self.dst = src[order], dst[order]
        #: Permutation from constructor edge order to storage order:
        #: a caller holding weights aligned with its own (src, dst) inputs
        #: passes ``w[matcher.input_order]`` to :meth:`rematch`.
        self.input_order = order
        self.nranks = int(nranks)
        self.bound = int(bound)
        self._pair = self.src * np.int64(max(1, self.nranks)) + self.dst
        _reject_repeated_pairs(self._pair)
        self._ckey = canon_key(self.src, self.dst, self.nranks)
        self._prev_w: np.ndarray | None = None
        self._active: np.ndarray | None = None  # active edge ids, canonical order
        self._result: list[tuple[int, int]] | None = None
        self.stats = {
            "steps": 0,
            "unchanged_hits": 0,
            "order_reuses": 0,
            "full_resorts": 0,
            "edges_reseeded": 0,
        }

    def _canonical_active(self, w: np.ndarray) -> np.ndarray:
        """Active (w>0) edge ids in canonical order, reusing the cached
        order when the weight deltas did not disturb it."""
        active_mask = w > 0
        if self._active is not None and self._prev_w is not None:
            prev_active = self._prev_w > 0
            if bool(np.array_equal(active_mask, prev_active)):
                ao = self._active
                ow = w[ao]
                if self._order_holds(ow, ao):
                    self.stats["order_reuses"] += 1
                    return ao
        self.stats["full_resorts"] += 1
        ids = np.flatnonzero(active_mask)
        order = np.lexsort((self._ckey[ids], -w[ids]))
        return ids[order]

    def _order_holds(self, ow: np.ndarray, ao: np.ndarray) -> bool:
        """Is the cached canonical order still canonical under new weights?

        Weights must be non-increasing, and equal-weight runs must appear
        in ascending stripe-key order — exactly the canonical tie-break —
        which makes the check one vectorized scan.
        """
        if len(ow) < 2:
            return True
        a, b = ow[:-1], ow[1:]
        tie = a == b
        if not bool(np.all((a > b) | tie)):
            return False
        return bool(np.all(self._ckey[ao[:-1][tie]] < self._ckey[ao[1:][tie]]))

    def rematch(self, w: np.ndarray) -> list[tuple[int, int]]:
        """Circuits for one step's weights; byte-identical to from-scratch."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.src.shape:
            raise ValueError(
                f"weight vector has shape {w.shape}, edge universe has {self.src.shape}"
            )
        self.stats["steps"] += 1
        if self._prev_w is not None and self._result is not None:
            if bool(np.array_equal(w, self._prev_w)):
                self.stats["unchanged_hits"] += 1
                return list(self._result)
            self.stats["edges_reseeded"] += int(np.count_nonzero(w != self._prev_w))
        else:
            self.stats["edges_reseeded"] += int(np.count_nonzero(w > 0))
        active = self._canonical_active(w)
        result = _match_sorted(
            self.src[active], self.dst[active], w[active], self.nranks, self.bound
        )
        self._prev_w = w.copy()
        self._active = active
        self._result = result
        return list(result)
