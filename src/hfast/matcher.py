"""Degree-constrained max-weight matching over columnar edge arrays.

:func:`match_edges` is the one matching path. It runs over a
structure-of-arrays edge list (``src``/``dst``/``w`` columns) and
returns the ascending positions of the selected edges in those columns.
It keeps one match's selection once, as arrays indexed by canonical edge
id (an edge's position in :func:`canonical_positions` order): a ``sel``
mask and one ``deg`` count per *half-node*, held by :class:`_State` next
to the edge list compressed by half-node. Half-node ``v`` is node
``v``'s egress and half-node ``n + v`` its ingress, so an edge ``(s, d)``
is one incidence in row ``s`` and one in row ``n + d``, and each
incidence records the row at its far end. The greedy seed, the swap pass
and the augment pass all read and write those arrays in place.

The greedy seed runs over growing prefix windows of the canonical order
and stops once capacity is spent. A window runs one b-Suitor-style round
(accept every edge within the remaining capacity at *both* endpoints
among surviving edges) and one sequential pass over what it left, which
together give exactly the sequential greedy result. It shares
:class:`_State`'s half-node rows: the first round reads each edge's
place in them. Improvement passes follow: a 1-for-k swap pass whose candidates
come from a lower-bound filter (a per-half-node minimum of selected
weights, kept between rounds and recomputed where the selection moved),
and a 2-for-1 augment pass that reads every attempt from one table of
per-half-node rows (:func:`_augment_pass_vector`) instead of walking
candidates edge by edge. The table lasts the whole match:
:class:`_State` fills it once, every swap and commit rewrites the rows
whose picks it changed, and a pass re-evaluates only the attempts that
read a row whose picks or degree changed. On rows of at most
``_SCALAR_ROWS`` edges a commit updates the arrays one element at a
time; on wider rows with array operations. Where no node has more than
``bound`` matchable out- or in-edges, every matchable edge is selected
and no state is built. :class:`IncrementalMatcher` keeps a persistent
edge universe for re-matching evolving weights; its result is always
byte-identical to matching from scratch.

Every pass works in one canonical edge order — descending weight, ties
in *stripe* order ``((dst - src) mod n, src, dst)``, the :func:`tie_order`
a caller builds once per edge list. The pure-Python
reference matcher (sequential greedy seed, dict/set selection state and
swap pass, loop augment pass) lives in ``tests/oracles.py``;
``tests/test_matcher_augment.py`` pins the swap and augment passes
against it from identical states, and ``tests/test_matcher_properties.py``
and ``tests/test_matcher_differential.py`` pin whole matches against the
reference. Edge lists hold each ``(src, dst)`` pair at most once;
:func:`tie_order` rejects a repeat. The stripe tie-break is a Latin-square round-robin: on
tie-heavy traffic (a uniform all-to-all) each stripe is a perfect
permutation, so greedy saturates every endpoint evenly instead of
stranding capacity the way pair-lexicographic order does.

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

    Fits int64 up to ~2M ranks (n**3 < 2**63). A self-loop's stripe
    component is 0, so self-loops key below every other edge.
    """
    n = np.int64(max(1, nranks))
    stripe = (dst - src) % n
    return stripe * n * n + src * n + dst


def tie_order(src: np.ndarray, dst: np.ndarray, nranks: int) -> np.ndarray:
    """Positions of the edges that are not self-loops, in stripe order
    ``((dst - src) mod n, src, dst)``: the canonical order's tie-break.
    It depends only on the pairs, so one tie order serves every weight
    vector over the same columns (:func:`canonical_positions`).

    The augment pass is exact only on edge lists that hold each
    ``(src, dst)`` pair at most once, so a repeat raises ``ValueError``.
    Columns whose pair key strictly increases, as every
    :class:`hfast.matrix.CommMatrix`'s does, hold no repeat and are
    already in stripe order within each stripe, so they are only grouped
    by stripe.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n = np.int64(max(1, nranks))
    pairs = src * n + dst
    if np.all(pairs[1:] > pairs[:-1]):
        order = _stable_order((dst - src) % n)
    else:
        key = canon_key(src, dst, nranks)
        order = np.argsort(key)
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError(
                "edge list repeats a (src, dst) pair; each pair may appear at most once"
            )
    # Self-loops, stripe 0, come first.
    return order[np.count_nonzero(src == dst) :]


def canonical_positions(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, *, tie: np.ndarray | None = None,
) -> np.ndarray:
    """Positions of the matchable edges (positive weight, no self-loop) in
    canonical order: one stable sort by descending weight over the tie
    order.

    ``tie`` is :func:`tie_order` of the same columns, for a caller that
    orders one edge list under several weight vectors; without it, it is
    built here, and a repeated ``(src, dst)`` pair raises ``ValueError``.
    """
    if tie is None:
        tie = tie_order(src, dst, nranks)
    w = np.asarray(w, dtype=np.float64)[tie]
    live = w > 0
    return tie[live][np.argsort(-w[live], kind="stable")]


# -- greedy seed --------------------------------------------------------------


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for small non-negative int64
    keys (node or half-node ids), as one sort of the distinct composites
    ``key * len(keys) + position``: numpy's stable int64 argsort is 4–9×
    slower than its plain sort."""
    size = np.int64(len(keys))
    order = keys * size
    order += np.arange(size)
    order.sort()
    order %= size
    return order


def _group_rank(values: np.ndarray) -> np.ndarray:
    """0-based occurrence rank of each element within its value group.

    ``values`` is visited in array order; the i-th occurrence of a value
    gets rank i. Vectorized via a stable sort and run-length offsets.
    """
    order = _stable_order(values)
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


def _unbound(src: np.ndarray, dst: np.ndarray, nranks: int, bound: int) -> np.ndarray | None:
    """The selection of canonically ordered columns where capacity cannot
    bind, at a ``bound`` already clamped to ``nranks``: no edge at a bound
    of zero, every edge where no node has more than ``bound`` out- or
    in-edges. ``None`` where capacity binds."""
    if bound <= 0 or len(src) == 0:
        return np.empty(0, dtype=np.int64)
    if (
        len(src) <= nranks * bound
        and np.bincount(src).max() <= bound
        and np.bincount(dst).max() <= bound
    ):
        return np.arange(len(src))
    return None


def greedy_seed_vector(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[int]:
    """Greedy seed over canonical-ordered edges, in b-Suitor-style rounds
    and a sequential pass.

    A round accepts every surviving edge whose rank among surviving edges
    at *both* endpoints fits the remaining capacity there: every such
    edge is one the sequential scan accepts. The sequential scan over
    what the round left, with the capacity the round left, then accepts
    exactly the rest of the sequential greedy matching (Khan et al., the
    b-Suitor equivalence); the property suite pins the equality against
    the sequential scan in ``tests/oracles.py``.

    An edge's fate depends only on the edges before it, so the seed runs
    over growing prefix windows of the canonical order (``4 * n * bound``
    edges, then doubling): one round over a window's edges whose
    endpoints both have capacity left, then one sequential pass over its
    survivors. No window runs once every out- or every in-capacity is
    spent: on dense traffic the first windows decide the seed and the
    rest of the edge list is never ranked. Where no node has more than
    ``bound`` out- or in-edges, every edge fits and no round runs.
    Returns accepted edge indexes in canonical order.
    """
    bound = min(bound, nranks)
    seed = _unbound(src, dst, nranks, bound)
    return (_greedy_seed(src, dst, nranks, bound) if seed is None else seed).tolist()


def _greedy_seed(
    src: np.ndarray, dst: np.ndarray, nranks: int, bound: int, rows=None
) -> np.ndarray:
    """:func:`greedy_seed_vector` as an ascending int64 array, where
    capacity binds. ``rows`` are the columns' half-node rows
    (:func:`_csr`) when the caller has them: every edge of the first
    window is alive, so its rank at an endpoint is its place in that
    half-node's row, and the first round accepts the edges among the
    first ``bound`` of both their rows without ranking anything."""
    cap_out = np.full(nranks, bound, dtype=np.int64)
    cap_in = np.full(nranks, bound, dtype=np.int64)
    chosen = []
    lo, size = 0, 4 * nranks * bound
    while lo < len(src) and cap_out.any() and cap_in.any():
        hi = min(lo + size, len(src))
        alive = np.arange(lo, hi)
        if lo == 0 and rows is not None:
            top = rows[1][_rows(rows[0], np.arange(2 * nranks), bound)[0]]
            acc = np.bincount(top[top < hi], minlength=hi) == 2
        else:
            alive = alive[(cap_out[src[alive]] > 0) & (cap_in[dst[alive]] > 0)]
            s, d = src[alive], dst[alive]
            acc = (_group_rank(s) < cap_out[s]) & (_group_rank(d) < cap_in[d])
        lo, size = hi, 2 * size
        took = alive[acc]
        cap_out -= np.bincount(src[took], minlength=nranks)
        cap_in -= np.bincount(dst[took], minlength=nranks)
        chosen += [took, _scan(alive[~acc], src, dst, cap_out, cap_in)]
    return np.sort(np.concatenate(chosen))


def _scan(edges: np.ndarray, src: np.ndarray, dst: np.ndarray, cap_out, cap_in) -> np.ndarray:
    """The sequential greedy over ``edges``, ascending canonical ids:
    accept each edge with capacity left at both ends and spend it there.
    Returns the accepted edges; the capacities are updated in place."""
    edges = edges[(cap_out[src[edges]] > 0) & (cap_in[dst[edges]] > 0)]
    out, into = memoryview(cap_out), memoryview(cap_in)
    took = []
    for e, s, d in zip(edges.tolist(), src[edges].tolist(), dst[edges].tolist()):
        if out[s] and into[d]:
            out[s] -= 1
            into[d] -= 1
            took.append(e)
    return np.array(took, dtype=np.int64)


# -- the match state and its improvement passes -------------------------------


def _csr(src: np.ndarray, dst: np.ndarray, nranks: int) -> tuple[np.ndarray, ...]:
    """The edge list compressed by half-node: ``(ptr, edge, far)``.

    Row ``h`` lists the incidences at half-node ``h``:
    ``edge[ptr[h]:ptr[h + 1]]`` are its edges in ascending id, and
    ``far`` holds the half-node at each one's other end.
    """
    n, m = nranks, len(src)
    home = np.concatenate((src, dst + n))
    ptr = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(home, minlength=2 * n), out=ptr[1:])
    edge = _stable_order(home)
    far = np.concatenate((dst + n, src))[edge]
    edge[edge >= m] -= m
    return ptr, edge, far


def _rows(ptr: np.ndarray, rows: np.ndarray, most=None) -> tuple[np.ndarray, np.ndarray]:
    """Positions covered by compressed ``rows`` (the first ``most`` of
    each, when given), concatenated in order, and the slot in ``rows``
    each position came from."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    if most is not None:
        lens = np.minimum(lens, most)
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


#: Table cells one batch of augment attempts may span, and about the row
#: cells one batch of the table fill reads, so a match's temporaries stay
#: a few MB however large it is.
_ATTEMPT_CELLS = 1 << 16

#: A match whose longest half-node row holds at most this many edges
#: takes the scalar form of :meth:`_State.move` and :meth:`_State.gains`;
#: a wider one the array form. The scalar form's work grows with the rows
#: a commit rewrites, so rows as long as the longest are its worst case:
#: on such rows the two forms break even at 10 edges (README, "Matcher").
_SCALAR_ROWS = 10

#: The most attempts :meth:`_State.gains` evaluates in the scalar form; a
#: longer batch (a pass's first) is array work in either form.
_SCALAR_ATTEMPTS = 16


class _State:
    """One match: its canonical edge columns and bound, the static
    half-node rows, the selection, the augment pass's table and the swap
    filter, stored once.

    Half-node ``v < n`` is node ``v``'s egress, half-node ``n + v`` its
    ingress. Row ``h`` of the compressed table ``ptr`` lists the
    incidences at ``h``: ``edge[ptr[h]:ptr[h + 1]]`` are its edges in
    canonical order (so by non-increasing weight) and ``far`` the
    half-node at each one's other end: the ``rows`` the greedy seed read
    (:func:`_csr`), or built here. ``pair`` is the ``(src, dst)`` key
    that fixes the augment pass's visit order, and ``w_pad`` the weight
    column padded with a 0.0 that the "no edge" index ``len(w)`` reads.
    The selection is the ``sel`` mask over canonical edges plus its
    per-half-node counts ``deg``, whose halves ``outdeg`` and ``indeg``
    are views.

    ``table`` row ``h`` holds the picks an augment attempt reads there
    (:func:`_augment_pass_vector`): the first ``width`` edges of ``h``'s
    row that are unselected and whose far half-node is below the bound,
    ``width`` being the bound or the longest row, whichever is less. It
    is filled here, once, and kept current by :meth:`move`, through which
    every change to the selection goes. The attempts that read row ``h``
    are the selected edges in it; ``stale`` marks those whose outcome may
    have changed since they were last evaluated, every selected edge at
    first. ``floor`` and ``cand`` are the swap filter's, built by its first
    call and then current but for the rows of the half-nodes ``moved``
    marks (:func:`_swap_candidates`).

    :meth:`move` and :meth:`gains` come in two forms that follow one rule.
    The array form runs numpy over the rows and attempts at hand. The
    scalar form, taken when no row is longer than ``_SCALAR_ROWS`` (and by
    :meth:`gains` for at most ``_SCALAR_ATTEMPTS`` attempts), reads and
    writes the same arrays one element at a time through the memoryviews
    in ``views``, so a commit on narrow rows costs the few entries it
    touches instead of a hundred numpy calls.
    """

    __slots__ = (
        "src", "dst", "w", "bound", "pair", "ptr", "edge", "far", "w_pad", "width", "sel",
        "deg", "outdeg", "indeg", "table", "stale", "floor", "cand", "moved", "views",
    )

    def __init__(
        self, src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int, selected,
        rows=None,
    ):
        n, m = nranks, len(w)
        self.src, self.dst, self.w, self.bound = src, dst, w, bound
        self.pair = src * np.int64(max(1, n)) + dst
        self.ptr, self.edge, self.far = _csr(src, dst, n) if rows is None else rows
        self.w_pad = np.append(w, 0.0)
        longest = int(np.diff(self.ptr).max(initial=0))
        self.width = min(bound, longest)
        self.sel = np.zeros(m, dtype=bool)
        self.sel[selected] = True
        self.deg = np.bincount(np.concatenate((src[self.sel], dst[self.sel] + n)), minlength=2 * n)
        self.outdeg, self.indeg = self.deg[:n], self.deg[n:]
        self.table = np.full((2 * n, self.width), m, dtype=np.int64)
        self.stale = np.zeros(m, dtype=bool)
        step = max(1, _ATTEMPT_CELLS // max(1, longest))
        for lo in range(0, 2 * n, step):
            hi = min(lo + step, 2 * n)
            slot = np.repeat(np.arange(hi - lo), np.diff(self.ptr[lo : hi + 1]))
            self.table[lo:hi], readers, _ = self._fill(hi - lo, slice(self.ptr[lo], self.ptr[hi]), slot)
            self.stale[readers] = True
        self.floor = self.cand = None
        self.moved = np.zeros(2 * n, dtype=bool)
        self.views = None
        if longest <= _SCALAR_ROWS:
            self.views = tuple(
                memoryview(a)
                for a in (self.ptr, self.edge, self.far, self.sel, self.deg,
                          self.table.reshape(-1), src, dst, w, self.stale, self.moved)
            )

    def _fill(self, count: int, flat, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` table rows as the selection makes them, from the
        incidence positions ``flat`` they cover (an index array or a
        slice) and the row ``slot`` each came from (:func:`_rows`), and
        the attempts that read those rows: the selected edges in them (an
        edge in two of the rows twice), with each one's slot."""
        edges = self.edge[flat]
        picked = self.sel[edges]
        ok = ~picked & (self.deg[self.far[flat]] < self.bound)
        free, at = edges[ok], slot[ok]
        rank = np.arange(len(at)) - np.searchsorted(at, at)
        keep = rank < self.width
        picks = np.full((count, self.width), len(self.w), dtype=np.int64)
        picks[at[keep], rank[keep]] = free[keep]
        return picks, edges[picked], slot[picked]

    def move(self, drop, add):
        """Deselect the edges ``drop``, select ``add``, refresh the table
        and mark stale the attempts that may now decide otherwise, which it
        returns (an edge possibly more than once).

        A move rewrites the rows of the half-nodes at the moved edges'
        ends, which hold every changed selection and degree. Elsewhere a
        row's picks change only where a half-node crossed the bound, and
        then only if the unselected edge to it is among the row's first
        ``width`` feasible edges before the move (a half-node that filled
        up) or after it (one that opened): only those far rows are
        rewritten. An attempt reads its two rows and their degrees, so the
        attempts marked stale are the selected edges in a row whose picks
        or degree changed, and the edges ``add`` selects, which no pass
        has evaluated as they stand.
        """
        if self.views is not None:
            return self._move_scalar(drop, add)
        drop = np.asarray(drop, dtype=np.int64)
        add = np.asarray(add, dtype=np.int64)
        src, dst, deg, bound, n = self.src, self.dst, self.deg, self.bound, len(self.outdeg)
        ends = np.concatenate((src[drop], dst[drop] + n, src[add], dst[add] + n))
        before = deg[ends]
        np.subtract.at(deg, ends[: 2 * len(drop)], 1)
        np.add.at(deg, ends[2 * len(drop) :], 1)
        self.sel[drop] = self.stale[drop] = False
        self.sel[add] = self.stale[add] = True
        self.moved[ends] = True
        after = deg[ends]
        # Every far row of a crossed half-node is filled; those whose
        # picks stay are written back unchanged.
        refill = np.zeros(2 * n, dtype=bool)
        refill[ends] = True
        for h in ends[(before < bound) != (after < bound)].tolist():
            refill[self.far[self.ptr[h] : self.ptr[h + 1]]] = True
        rows = np.flatnonzero(refill)
        picks, readers, slot = self._fill(len(rows), *_rows(self.ptr, rows))
        changed = (picks != self.table[rows]).any(axis=1)
        changed[np.searchsorted(rows, ends[before != after])] = True
        self.table[rows] = picks
        readers = readers[changed[slot]]
        self.stale[readers] = True
        return np.concatenate((readers, add))

    def _move_scalar(self, drop, add) -> list[int]:
        ptr, edge, far, sel, deg, table, src, dst, _, stale, moved = self.views
        n, bound, width = len(self.outdeg), self.bound, self.width
        before: dict[int, int] = {}
        for e in drop:
            sel[e] = stale[e] = False
            for h in (src[e], dst[e] + n):
                before.setdefault(h, deg[h])
                deg[h] -= 1
        for e in add:
            sel[e] = stale[e] = True
            for h in (src[e], dst[e] + n):
                before.setdefault(h, deg[h])
                deg[h] += 1
        readers = list(add)
        for h, was in before.items():
            moved[h] = True
            changed, selected = self._rewrite(h)
            if changed or deg[h] != was:
                readers += selected
        # A far row not yet rewritten stands as before the move, when the
        # unselected edge ``e`` to a crossed half-node was feasible there
        # if that half-node filled up and infeasible if it opened. Either
        # way the row's picks change by ``e`` exactly when the row has a
        # free slot (``none``, past every edge) or a last pick after ``e``.
        done = set(before)
        for h, was in before.items():
            if (was < bound) == (deg[h] < bound):
                continue
            for j in range(ptr[h], ptr[h + 1]):
                r, e = far[j], edge[j]
                if r not in done and not sel[e] and table[r * width + width - 1] >= e:
                    done.add(r)
                    readers += self._rewrite(r)[1]
        for e in readers:
            stale[e] = True
        return readers

    def _rewrite(self, h: int) -> tuple[bool, list[int]]:
        """Rewrite table row ``h`` one element at a time; returns whether
        its picks changed and the selected edges in the row."""
        ptr, edge, far, sel, deg, table = self.views[:6]
        bound, col = self.bound, h * self.width
        end = col + self.width
        changed = False
        selected = []
        for j in range(ptr[h], ptr[h + 1]):
            e = edge[j]
            if sel[e]:
                selected.append(e)
            elif col < end and deg[far[j]] < bound:
                if table[col] != e:
                    table[col] = e
                    changed = True
                col += 1
        none = len(self.w)
        for col in range(col, end):
            if table[col] != none:
                table[col] = none
                changed = True
        return changed, selected

    def picks(self, e: int):
        """The edges a committed attempt on the selected edge ``e`` selects:
        the first ``bound - deg(h) + 1`` picks of each of its rows ``h``."""
        n, top, none = len(self.outdeg), self.bound + 1, len(self.w)
        if self.views is not None:
            return [p for p in self._reads(e) if p != none]
        s, d = int(self.src[e]), int(self.dst[e]) + n
        picks = np.concatenate((self.table[s, : top - self.deg[s]], self.table[d, : top - self.deg[d]]))
        return picks[picks != none]

    def _reads(self, e: int) -> list[int]:
        """The table entries an attempt on ``e`` reads, one element at a
        time: ``none`` where a row has fewer picks."""
        deg, table, src, dst = self.views[4:8]
        width, top = self.width, self.bound + 1
        s, d = src[e], dst[e] + len(self.outdeg)
        s_at, d_at = s * width, d * width
        return (table[s_at : s_at + min(width, top - deg[s])].tolist()
                + table[d_at : d_at + min(width, top - deg[d])].tolist())

    def gains(self, edges) -> np.ndarray | list[bool]:
        """Whether the augment attempt on each selected edge in ``edges``
        commits, from the table as it stands; clears their stale marks.
        The picks' weights are summed in ascending canonical index:
        sequentially, like the reference loop's ``+=`` in
        ``tests/oracles.py``, never by ``sum``, whose pairwise order
        differs. The array form sums one column at a time in batches of
        at most ``_ATTEMPT_CELLS`` table cells."""
        if self.views is not None and len(edges) <= _SCALAR_ATTEMPTS:
            return self._gains_scalar(edges)
        self.stale[edges] = False
        n, bound, width, none = len(self.outdeg), self.bound, self.width, len(self.w)
        halves = np.stack((self.src[edges], self.dst[edges] + n), axis=1)
        w = self.w[edges]
        # An attempt with no pick sums to 0.0, which beats no weight a match
        # holds: only attempts with a first pick in either row are summed.
        gains = w < 0.0
        some = np.flatnonzero(np.minimum(*self.table[halves.T, 0]) < none) if width else []
        cols = np.arange(width)
        batch = max(1, _ATTEMPT_CELLS // (2 * width))
        for lo in range(0, len(some), batch):
            at = some[lo : lo + batch]
            h = halves[at]
            limit = (bound + 1 - self.deg[h])[..., None]
            picks = np.where(cols < limit, self.table[h], none)
            picks = picks.reshape(len(h), 2 * width)
            picks.sort(axis=1)
            # Column by column is cumsum's order, without its per-row loop.
            weights = self.w_pad[picks]
            total = weights[:, 0].copy()
            for column in weights.T[1:]:
                total += column
            gains[at] = total > w[at]
        return gains

    def _gains_scalar(self, edges) -> list[bool]:
        w, stale = self.views[8:10]
        none = len(self.w)
        gains = []
        for e in edges.tolist() if isinstance(edges, np.ndarray) else edges:
            stale[e] = False
            picks = self._reads(e)
            picks.sort()
            total = 0.0
            for p in picks:
                if p == none:
                    break
                total += w[p]
            gains.append(total > w[e])
        return gains


def _swap_candidates(state: _State) -> list[int]:
    """Canonically-ordered edges worth visiting in a 1-for-k swap pass.

    An unselected edge can only displace blockers if its weight beats the
    sum of the lightest selected edge at each saturated endpoint: a
    per-half-node minimum of selected weights (``floor``), zero at
    unsaturated ones. The first call computes ``floor`` and each edge's
    verdict (``cand``) from every edge, and the state keeps both between
    rounds. They change only at the half-nodes moved since the last call,
    so later calls recompute only those rows' minimums and the verdicts of
    the edges in them: a round moves a few rows, while on every row the
    row-wise update costs 2-4 times the pass over every edge. The filter
    is exact at pass start, so skipped edges cannot improve the matching
    unless an earlier swap in the same pass changes the state — and any
    such late-blooming candidate is picked up by the next pass
    (``improved`` stays True).
    """
    src, dst, w, sel, floor, cand = state.src, state.dst, state.w, state.sel, state.floor, state.cand
    n, bound = len(state.outdeg), state.bound
    if floor is None:
        ws = w[sel]
        lightest = np.full(2 * n, np.inf)
        np.minimum.at(lightest, np.concatenate((src[sel], dst[sel] + n)), np.concatenate((ws, ws)))
        state.floor = floor = np.where(state.deg >= bound, lightest, 0.0)
        state.cand = cand = ~sel & (w > floor[src] + floor[dst + n])
        state.moved[:] = False
        return np.flatnonzero(cand).tolist()
    rows = np.flatnonzero(state.moved)
    state.moved[rows] = False
    flat, slot = _rows(state.ptr, rows)
    edges = state.edge[flat]
    picked = np.flatnonzero(sel[edges])
    # A row runs by non-increasing weight: its last selected edge is the
    # lightest.
    last = picked[np.append(slot[picked][1:] != slot[picked][:-1], True)] if picked.size else picked
    lightest = np.full(len(rows), np.inf)
    lightest[slot[last]] = w[edges[last]]
    floor[rows] = np.where(state.deg[rows] >= bound, lightest, 0.0)
    cand[edges] = ~sel[edges] & (w[edges] > floor[src[edges]] + floor[dst[edges] + n])
    return np.flatnonzero(cand).tolist()


def _lightest(state: _State, half: int) -> int:
    """The lightest selected edge in ``half``'s row; the row runs by
    non-increasing weight, and ties go to the lowest far end (the lowest
    ``dst`` of an egress row, the lowest ``src`` of an ingress row)."""
    lo, hi = state.ptr[half], state.ptr[half + 1]
    row = state.edge[lo:hi]
    picked = state.sel[row]
    row, far = row[picked], state.far[lo:hi][picked]
    light = state.w[row] == state.w[row[-1]]
    return int(row[light][np.argmin(far[light])])


def _swap_pass(state: _State, candidates: list[int]) -> bool:
    """1-for-k swaps: evict the lightest blockers when one edge pays for them.

    Sequential apply loop — eligibility is re-checked against the live
    state, so any caller that passes the same candidate list makes the
    same sequence of moves. A blocker is the lightest selected out-edge
    of a saturated source (ties: lowest dst) or in-edge of a saturated
    destination (ties: lowest src). Each swap goes through
    :meth:`_State.move`, which keeps the augment table current.
    """
    src, dst, w, deg = state.src, state.dst, state.w, state.deg
    n, bound = len(state.outdeg), state.bound
    improved = False
    for ei in candidates:
        s, d = int(src[ei]), int(dst[ei]) + n
        victims = [_lightest(state, h) for h in (s, d) if deg[h] >= bound]
        if float(w[ei]) > sum(float(w[v]) for v in victims):
            state.move(victims, [ei])
            improved = True
    return improved


def _augment_pass_vector(state: _State) -> bool:
    """2-for-1 augments: drop one circuit when the freed endpoints can host
    a heavier *set* of replacements.

    The pass visits selected edges in ``(src, dst)`` order. An attempt
    on a selected ``(s, d)`` never mixes its two sides (edge pairs are
    unique): it takes the first ``bound - outdeg(s) + 1`` edges
    ``(s, x)`` that are unselected with ``indeg(x) < bound``, and the
    first ``bound - indeg(d) + 1`` edges ``(y, d)`` that are unselected
    with ``outdeg(y) < bound``, and commits when their weights sum past
    ``w(s, d)``. Both sides are one rule over half-nodes: the first
    ``bound - deg(h) + 1`` unselected edges in ``h``'s row whose far
    half-node has ``deg < bound``. So an attempt is a lookup of its two
    half-nodes' rows in the state's table plus a sum
    (:meth:`_State.gains`).

    An attempt's outcome depends only on its weight, its two table rows
    and their degrees, so the pass evaluates only the stale attempts:
    every other one did not commit when last evaluated and reads nothing
    that has changed since. With none stale it returns ``False`` at once.
    Commits are then applied in visit order through :meth:`_State.move`,
    and each re-evaluates the later attempts it marked stale; those it
    marks earlier in the order, and the edges it selects, wait for the
    next pass.
    """
    if not state.stale.any():
        return False
    visit = np.flatnonzero(state.sel)
    visit = visit[np.argsort(state.pair[visit])]
    at = np.full(len(state.w), -1)
    at[visit] = np.arange(len(visit))
    ok = np.zeros(len(visit), dtype=bool)
    todo = np.flatnonzero(state.stale[visit])
    ok[todo] = state.gains(visit[todo])
    # The scalar form's readers are a short list, looked up one by one.
    index = memoryview(at) if state.views is not None else None
    improved = False
    i = -1
    while i + 1 < len(ok):
        i += 1 + int(ok[i + 1 :].argmax())  # stops at the first True
        if not ok[i]:
            break
        improved = True
        readers = state.move(visit[i : i + 1], state.picks(int(visit[i])))
        if index is None:
            later = at[readers]
            later = _distinct(later[later > i])
        else:
            later = sorted({j for j in map(index.__getitem__, readers) if j > i})
        if len(later):
            ok[later] = state.gains(visit[later])
    return improved


def _match_sorted(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> np.ndarray:
    """Selected edges of canonically-sorted columns, as ascending ids.
    The greedy seed and the state share one set of half-node rows."""
    bound = min(bound, nranks)
    unbound = _unbound(src, dst, nranks, bound)
    if unbound is not None:
        return unbound  # no swap or augment can add an edge
    rows = _csr(src, dst, nranks)
    state = _State(src, dst, w, nranks, bound, _greedy_seed(src, dst, nranks, bound, rows), rows)
    # The first round's swap pass would find nothing: the greedy seed
    # skipped an edge only at a saturated endpoint whose selected edges
    # all come earlier in canonical order, so they weigh at least as much.
    improved = _augment_pass_vector(state)
    for _ in range(DEFAULT_MAX_PASSES - 1):
        if not improved:
            break
        improved = _swap_pass(state, _swap_candidates(state))
        improved |= _augment_pass_vector(state)
    return np.flatnonzero(state.sel)


def match_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int,
    *, tie: np.ndarray | None = None,
) -> np.ndarray:
    """Degree-constrained max-weight matching over edge columns.

    Returns the ascending int64 positions of the selected circuits in the
    caller's columns: ``src[pos]``/``dst[pos]`` are the circuits, and on
    ``(src, dst)``-ordered columns such as a
    :class:`hfast.matrix.CommMatrix`'s they come out ``(src, dst)``-sorted.
    ``tie`` is the columns' :func:`tie_order`, for a caller that matches
    one edge list under several weight vectors (a ``CommMatrix`` keeps
    its own). Each ``(src, dst)`` pair may appear at most once: the
    augment pass is exact only on such lists, so building the tie order
    of a list that repeats one raises ``ValueError``.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    pos = canonical_positions(src, dst, w, nranks, tie=tie)
    return np.sort(pos[_match_sorted(src[pos], dst[pos], w[pos], nranks, bound)])


# -- incremental re-matching --------------------------------------------------


class IncrementalMatcher:
    """Re-match evolving weights over a persistent edge universe.

    Construct once with the fixed link structure (``src``/``dst``
    columns, e.g. the rows of a :class:`hfast.matrix.CommMatrix`; a
    repeated pair raises ``ValueError``), then call :meth:`rematch` with
    a full weight vector per timestep:

    - no changes → the cached assignment is returned outright;
    - changes that preserve the canonical order → the cached sort is
      reused, and the whole seed and match re-run;
    - anything else → full canonical re-sort + match.

    Every path produces a result byte-identical to matching the same
    weights from scratch. :attr:`stats` counts the steps on each path;
    its ``edges_reseeded`` counts weights that changed, not work saved,
    since every step that misses the cache re-matches every edge.
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
        self._tie = tie_order(self.src, self.dst, self.nranks)
        self._ckey = canon_key(self.src, self.dst, self.nranks)
        self._loopless = self.src != self.dst
        self._prev_w: np.ndarray | None = None
        self._active: np.ndarray | None = None  # active edge ids, canonical order
        self._result: np.ndarray | None = None
        self.stats = {
            "steps": 0,
            "unchanged_hits": 0,
            "order_reuses": 0,
            "full_resorts": 0,
            "edges_reseeded": 0,
        }

    def _canonical_active(self, w: np.ndarray) -> np.ndarray:
        """Active (w>0, no self-loop) edge ids in canonical order, reusing
        the cached order when the weight deltas did not disturb it."""
        active_mask = (w > 0) & self._loopless
        if self._active is not None and self._prev_w is not None:
            prev_active = (self._prev_w > 0) & self._loopless
            if bool(np.array_equal(active_mask, prev_active)):
                ao = self._active
                ow = w[ao]
                if self._order_holds(ow, ao):
                    self.stats["order_reuses"] += 1
                    return ao
        self.stats["full_resorts"] += 1
        return canonical_positions(self.src, self.dst, w, self.nranks, tie=self._tie)

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

    def rematch(self, w: np.ndarray) -> np.ndarray:
        """One step's selected edges, as ascending positions in the
        storage columns ``self.src``/``self.dst``; byte-identical to
        :func:`match_edges` over those columns."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.src.shape:
            raise ValueError(
                f"weight vector has shape {w.shape}, edge universe has {self.src.shape}"
            )
        self.stats["steps"] += 1
        if self._prev_w is not None and self._result is not None:
            if bool(np.array_equal(w, self._prev_w)):
                self.stats["unchanged_hits"] += 1
                return self._result.copy()
            self.stats["edges_reseeded"] += int(np.count_nonzero(w != self._prev_w))
        else:
            self.stats["edges_reseeded"] += int(np.count_nonzero(w > 0))
        active = self._canonical_active(w)
        chosen = _match_sorted(
            self.src[active], self.dst[active], w[active], self.nranks, self.bound
        )
        result = np.sort(active[chosen])
        self._prev_w = w.copy()
        self._active = active
        self._result = result
        return result.copy()
