"""Pass-level identity: the reference's dict/set passes vs the array passes.

The reference matcher in ``tests/oracles.py`` keeps its selection in
:class:`oracles.MatchState` (sets of edge ids) and runs
:func:`oracles.swap_pass` and :func:`oracles.augment_pass`, loops over
candidate edges; :func:`hfast.matcher.match_edges` keeps its selection in
the arrays of :class:`hfast.matcher._State` and runs
:func:`hfast.matcher._swap_pass` and
:func:`hfast.matcher._augment_pass_vector`, which reads every attempt
from one table of per-half-node rows. The table lives in the state for
the whole match: every swap and commit refreshes the rows it changed and
marks stale the attempts whose rows changed, and a pass evaluates only
stale attempts. Started from identical selections, each pair of passes
must leave identical selections and agree on whether anything improved —
pass after pass, so the loop's memo and the table the array passes carry
from pass to pass are both exercised, and the swap passes must also
agree on their candidate lists. ``_State.move`` and ``_State.gains``
have an array and a scalar form, chosen by row length; every sweep runs
once with each form forced. One test pins the work itself: which
attempts a pass evaluates and which a swap leaves stale. The states here
come from random selections with unsaturated endpoints, not just the
greedy seed a real match starts from, and the weights include
non-integers across 19 orders of magnitude, where the order of a
floating-point sum decides a commit.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

import oracles
from hfast import matcher
from hfast.matcher import (
    IncrementalMatcher,
    _augment_pass_vector,
    _State,
    _swap_candidates,
    _swap_pass,
    canon_key,
    greedy_seed_vector,
    match_edges,
)
from oracles import sort_edges

#: Cutoffs that force each form of ``_State.move`` and ``_State.gains``:
#: no row (and no batch of attempts) is that short, or every one is.
FORMS = {"array": -1, "scalar": 1 << 62}


@contextlib.contextmanager
def forced(form):
    """States built inside take ``form``, for every batch of attempts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcher, "_SCALAR_ROWS", FORMS[form])
        mp.setattr(matcher, "_SCALAR_ATTEMPTS", FORMS[form])
        yield


def canonical(src, dst, w, n):
    """Canonical edge order; unlike ``sort_edges`` it keeps zero weights."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    order = np.lexsort((canon_key(src, dst, n), -w))
    return src[order], dst[order], w[order]


def random_graph(rng, n, density):
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    return np.nonzero(mask)


def random_selection(rng, src, dst, bound, n):
    """Edge ids forming a random degree-feasible selection. Each node's
    out- and in-capacity is capped at a random share of ``bound``, so many
    endpoints stay unsaturated."""
    cap_out = rng.integers(0, bound + 1, size=n)
    cap_in = rng.integers(0, bound + 1, size=n)
    chosen = []
    for ei in rng.permutation(len(src)).tolist():
        s, d = int(src[ei]), int(dst[ei])
        if cap_out[s] > 0 and cap_in[d] > 0 and rng.random() < 0.7:
            cap_out[s] -= 1
            cap_in[d] -= 1
            chosen.append(ei)
    return chosen


def state_of(src, dst, w, bound, n, chosen):
    """The reference's dict/set state holding the edges ``chosen``."""
    state = oracles.VersionedState(src, dst, w, bound, n)
    for ei in chosen:
        state.add(ei)
    return state


def array_state(src, dst, w, bound, n, chosen):
    """The matcher's array state holding the edges ``chosen``."""
    return _State(src, dst, w, n, bound, np.asarray(list(chosen), dtype=np.int64))


def selection(state, n):
    """An array state's selection as a set of edge ids, once its degree
    counts are checked against its mask."""
    assert np.array_equal(state.outdeg, np.bincount(state.src[state.sel], minlength=n))
    assert np.array_equal(state.indeg, np.bincount(state.dst[state.sel], minlength=n))
    return set(np.flatnonzero(state.sel).tolist())


def swap_floor(state, n):
    """Each half-node's swap filter bound by definition: the least weight
    selected there at a saturated half-node, 0.0 elsewhere."""
    floor = np.full(2 * n, np.inf)
    for e in np.flatnonzero(state.sel).tolist():
        for h in (int(state.src[e]), int(state.dst[e]) + n):
            floor[h] = min(floor[h], float(state.w[e]))
    return np.where(state.deg >= state.bound, floor, 0.0)


def reference_swap(loop):
    """One reference swap pass: its candidates, whether it improved, and
    the selection it left."""
    candidates = oracles.swap_candidates(loop)
    return candidates, oracles.swap_pass(loop, candidates), set(loop.sel)


def assert_replays(src, dst, w, n, bound, chosen, steps):
    """Replay the reference's ``steps`` (``(candidates, improved,
    selection)`` after a swap pass; ``candidates`` None for an augment
    pass) with each form of the array passes from the same selection.
    The swap filter's first call computes it from every edge and each
    later one updates the rows moved since, so every swap step after the
    first checks that update, its per-half-node bounds included."""
    for form in FORMS:
        with forced(form):
            array = array_state(src, dst, w, bound, n, chosen)
            assert (array.views is not None) == (form == "scalar")
            for p, (candidates, improved, sel) in enumerate(steps):
                label = f"{form} step {p}"
                if candidates is None:
                    assert _augment_pass_vector(array) == improved, f"{label}: improved differs"
                else:
                    array_candidates = _swap_candidates(array)
                    assert array_candidates == candidates, f"{label}: swap candidates differ"
                    assert np.array_equal(array.floor, swap_floor(array, n)), f"{label}: floors differ"
                    assert _swap_pass(array, array_candidates) == improved, f"{label}: improved differs"
                assert selection(array, n) == sel, f"{label}: selections differ"


def assert_passes_agree(src, dst, w, n, bound, chosen, passes=3):
    """Run the loop augment pass and both forms of the array pass from the
    same state, with the swap passes between them; compare after each.
    Returns the selection the last augment pass left."""
    loop = state_of(src, dst, w, bound, n, chosen)
    augment_loop = oracles.augmenter(src, dst, n)
    steps = []
    for p in range(passes):
        if p:
            steps.append(reference_swap(loop))
        steps.append((None, augment_loop(loop), set(loop.sel)))
    assert_replays(src, dst, w, n, bound, chosen, steps)
    return loop.sel


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_random_graphs_with_unsaturated_endpoints(bound):
    rng = np.random.default_rng(100 + bound)
    for _ in range(60):
        n = int(rng.integers(2, 24))
        src, dst = random_graph(rng, n, float(rng.uniform(0.05, 1.0)))
        w = rng.integers(1, 1000, size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        chosen = random_selection(rng, src, dst, bound, n)
        assert_passes_agree(src, dst, w, n, bound, chosen)


def half_node_rows(src, dst, n):
    """Each half-node's row as ``(edge, far half-node)`` pairs in ascending
    edge id: row ``s`` the out-edges of node ``s``, row ``n + d`` the
    in-edges of node ``d``."""
    rows = [[] for _ in range(2 * n)]
    for e, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        rows[s].append((e, d + n))
        rows[d + n].append((e, s))
    return rows


def row_picks(rows, sel, deg, bound, width):
    """Each row's picks by definition: its first ``width`` edges that are
    unselected and whose far half-node is below the bound."""
    return [[e for e, far in row if not sel[e] and deg[far] < bound][:width] for row in rows]


def marked_by_rule(rows, state, before_sel, before_deg):
    """What a move must mark stale, from the picks and degrees before and
    after it: the selected edges in a row whose picks or degree changed,
    and the edges it selected. Also returns the changed rows and the rows
    at the moved edges' ends."""
    old = row_picks(rows, before_sel, before_deg, state.bound, state.width)
    new = row_picks(rows, state.sel, state.deg, state.bound, state.width)
    changed = {h for h in range(len(rows)) if old[h] != new[h] or before_deg[h] != state.deg[h]}
    moved = set(np.flatnonzero(before_sel != state.sel).tolist())
    ends = {h for h, row in enumerate(rows) if moved & {e for e, _ in row}}
    want = {e for h in changed for e, _ in rows[h] if state.sel[e]}
    return want | set(np.flatnonzero(state.sel & ~before_sel).tolist()), changed, ends


def test_passes_evaluate_only_stale_attempts(monkeypatch):
    """The table is filled once a match and every move refreshes it, so a
    pass evaluates only the attempts whose rows changed. Every move, a
    swap's or a commit's, marks stale exactly what the rule names,
    computed here from the pick definition before and after it: the
    selected edges in a row whose picks or degree changed, and the edges
    it selected. So the first augment pass evaluates every selected edge,
    a pass right after one that committed nothing evaluates none, and the
    pass after a swap evaluates at its start what the swap marked. Both
    forms; the sweep must see a far row change and an end row whose
    attempts stay fresh."""
    evaluated = []
    gains, move = _State.gains, _State.move
    graph = {}

    def counting(state, edges):
        evaluated.append(sorted(np.asarray(edges).tolist()))
        return gains(state, edges)

    def checked(state, drop, add):
        before_sel, before_deg, before_stale = state.sel.copy(), state.deg.copy(), state.stale.copy()
        marked = move(state, drop, add)
        rows = graph["rows"]
        want, changed, ends = marked_by_rule(rows, state, before_sel, before_deg)
        assert set(np.asarray(marked).tolist()) == want
        stale = set(np.flatnonzero(before_stale & state.sel).tolist()) | want
        assert set(np.flatnonzero(state.stale).tolist()) == stale
        graph["far"] += bool(changed - ends)
        graph["spared"] += bool({e for h in ends for e, _ in rows[h] if state.sel[e]} - want)
        return marked

    monkeypatch.setattr(_State, "gains", counting)
    monkeypatch.setattr(_State, "move", checked)
    for form in FORMS:
        rng = np.random.default_rng(900)
        swaps = graph["far"] = graph["spared"] = 0
        with forced(form):
            for _ in range(60):
                n = int(rng.integers(4, 20))
                bound = int(rng.integers(1, 4))
                src, dst = random_graph(rng, n, float(rng.uniform(0.2, 1.0)))
                w = rng.integers(1, 50, size=len(src))
                src, dst, w = canonical(src, dst, w, n)
                graph["rows"] = half_node_rows(src, dst, n)
                chosen = random_selection(rng, src, dst, bound, n)
                state = array_state(src, dst, w, bound, n, chosen)
                # Swaps from the unsettled selection leave end rows whose
                # picks and degree stay.
                _swap_pass(state, _swap_candidates(state))
                selected = np.flatnonzero(state.sel).tolist()
                evaluated.clear()
                improved = _augment_pass_vector(state)
                assert evaluated[:1] == ([selected] if selected else [])
                while improved:
                    improved = _augment_pass_vector(state)
                assert not state.stale.any()
                evaluated.clear()
                assert _augment_pass_vector(state) is False and evaluated == []
                candidates = _swap_candidates(state)
                if candidates:
                    assert _swap_pass(state, candidates)
                    want = sorted(np.flatnonzero(state.stale).tolist())
                    evaluated.clear()
                    _augment_pass_vector(state)
                    assert evaluated[:1] == ([want] if want else [])
                    swaps += 1
        assert swaps and graph["far"] and graph["spared"], form


def test_unconstrained_match_builds_no_state(monkeypatch):
    """Where no node has more than ``bound`` matchable out- or in-edges
    every matchable edge fits: the match and the greedy seed return them
    all without building a ``_State``, as the reference matches them."""

    def refuse(*args):
        raise AssertionError("an unconstrained match built a _State")

    monkeypatch.setattr(matcher, "_State", refuse)
    rng = np.random.default_rng(404)
    for trial in range(40):
        n = int(rng.integers(2, 30))
        bound = int(rng.integers(1, 5))
        # A union of ``bound`` permutations: at most ``bound`` edges a node.
        src = np.tile(np.arange(n), bound)
        dst = np.concatenate([rng.permutation(n) for _ in range(bound)])
        keep = np.unique(src * n + dst, return_index=True)[1]
        src, dst = src[keep], dst[keep]
        w = rng.integers(1, 100, size=len(src)).astype(np.float64)
        if trial % 2:  # unmatchable edges do not count against the bound
            extra = rng.integers(0, n, size=(2, 3 * n))
            pairs = set(zip(src.tolist(), dst.tolist()))
            more = [(s, d) for s, d in zip(*extra.tolist()) if (s, d) not in pairs]
            more = list(dict.fromkeys(more))
            src = np.concatenate((src, [s for s, _ in more])).astype(np.int64)
            dst = np.concatenate((dst, [d for _, d in more])).astype(np.int64)
            w = np.concatenate((w, np.zeros(len(more))))
        want = oracles.circuits(src, dst, oracles.match_edges(src, dst, w, n, bound))
        assert oracles.circuits(src, dst, match_edges(src, dst, w, n, bound)) == want
        matchable = (w > 0) & (src != dst)
        assert len(want) == np.count_nonzero(matchable)
        ss, sd, sw = sort_edges(src, dst, w, n)
        assert greedy_seed_vector(ss, sd, sw, n, bound) == list(range(len(sw)))
        inc = IncrementalMatcher(src, dst, n, bound)
        assert oracles.circuits(inc.src, inc.dst, inc.rematch(w[inc.input_order])) == want


def test_float_weights_spanning_magnitudes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 26))
        bound = int(rng.integers(1, 5))
        src, dst = random_graph(rng, n, float(rng.uniform(0.2, 1.0)))
        w = 10.0 ** rng.uniform(-3, 16, size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        chosen = random_selection(rng, src, dst, bound, n)
        assert_passes_agree(src, dst, w, n, bound, chosen)


def test_float_weights_where_summation_order_decides():
    """At 2**53 a float's spacing is 2, so adding 1.0 rounds away and the
    order of additions decides whether a replacement set beats a circuit
    of 2**53 + 2. With bound 3 or 4 an attempt sums up to 8 picks."""
    rng = np.random.default_rng(8)
    weights = np.array([2.0**53 + 2, 2.0**53, 1.0, 1e-3])
    for _ in range(150):
        n = int(rng.integers(6, 26))
        bound = int(rng.integers(3, 5))
        src, dst = random_graph(rng, n, float(rng.uniform(0.3, 1.0)))
        w = rng.choice(weights, p=[0.15, 0.15, 0.6, 0.1], size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        chosen = random_selection(rng, src, dst, bound, n)
        assert_passes_agree(src, dst, w, n, bound, chosen)


def test_commit_follows_the_sequential_sum():
    """Drop (0, 1) and its 8 replacements weigh 2**53 + 7 * 1.0. Added in
    canonical order, as the loop does, each 1.0 rounds away: the sum stays
    2**53 and does not beat 2**53 + 2. Summed pairwise it would reach
    2**53 + 6 and commit."""
    bound = 4
    xs, ys = [2, 3, 4, 5], [6, 7, 8, 9]
    src = [0] + [0] * 4 + ys
    dst = [1] + xs + [1] * 4
    w = [2.0**53 + 2, 2.0**53] + [1.0] * 7
    src, dst, w = canonical(src, dst, w, 10)
    first = int(np.flatnonzero((src == 0) & (dst == 1))[0])
    sel = assert_passes_agree(src, dst, w, 10, bound, [first], passes=1)
    assert first in sel


@pytest.mark.parametrize("bound", [1, 2, 4])
def test_tie_heavy_weights(bound):
    rng = np.random.default_rng(200 + bound)
    for trial in range(40):
        n = int(rng.integers(3, 20))
        src, dst = random_graph(rng, n, float(rng.uniform(0.3, 1.0)))
        if trial % 2:
            w = np.full(len(src), 7.0)
        else:
            w = rng.integers(1, 4, size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        chosen = random_selection(rng, src, dst, bound, n)
        assert_passes_agree(src, dst, w, n, bound, chosen)


def test_zero_weight_edges():
    rng = np.random.default_rng(300)
    for _ in range(60):
        n = int(rng.integers(2, 16))
        bound = int(rng.integers(1, 5))
        src, dst = random_graph(rng, n, float(rng.uniform(0.2, 1.0)))
        w = rng.integers(0, 4, size=len(src)) * (rng.random(len(src)) < 0.5)
        src, dst, w = canonical(src, dst, w, n)
        chosen = random_selection(rng, src, dst, bound, n)
        assert_passes_agree(src, dst, w, n, bound, chosen)


def test_bounds_at_and_past_every_degree():
    """From ``n - 1`` up, the bound exceeds what any row can hold, so the
    array pass's rows are as wide as the largest degree, not the bound."""
    rng = np.random.default_rng(400)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        src, dst = random_graph(rng, n, float(rng.uniform(0.3, 1.0)))
        w = 10.0 ** rng.uniform(-3, 6, size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        for bound in (n - 1, n + 3, 10**9):
            chosen = random_selection(rng, src, dst, bound, n)
            assert_passes_agree(src, dst, w, n, bound, chosen)


def test_attempts_evaluated_in_small_batches(monkeypatch):
    """Batches of one or two attempts commit exactly what one batch does."""
    monkeypatch.setattr(matcher, "_ATTEMPT_CELLS", 5)
    rng = np.random.default_rng(401)
    for _ in range(40):
        n = int(rng.integers(2, 20))
        bound = int(rng.integers(1, 5))
        src, dst = random_graph(rng, n, float(rng.uniform(0.2, 1.0)))
        w = 10.0 ** rng.uniform(-3, 16, size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        chosen = random_selection(rng, src, dst, bound, n)
        assert_passes_agree(src, dst, w, n, bound, chosen)


def test_huge_bound_matches_on_every_backend():
    """A client may ask for 2**40 circuits a node; the matcher, the
    incremental matcher and the reference still match, and they agree."""
    rng = np.random.default_rng(402)
    n = 40
    src, dst = random_graph(rng, n, 0.5)
    w = rng.integers(1, 1000, size=len(src)).astype(np.float64)
    inc = IncrementalMatcher(src, dst, n, 2**40)
    outs = [
        oracles.circuits(src, dst, match_edges(src, dst, w, n, 2**40)),
        oracles.circuits(inc.src, inc.dst, inc.rematch(w[inc.input_order])),
        oracles.circuits(src, dst, oracles.match_edges(src, dst, w, n, 2**40)),
    ]
    assert outs[0] == outs[1] == outs[2]
    assert len(outs[0]) == len(src)  # no endpoint saturates: every edge


def test_pass_memory_stays_near_the_edge_count():
    """A dense 120-node graph, every edge selected, a bound past every
    degree: 14,280 attempts that each read 238 row cells. Built at once
    the pick arrays would take ~27 MB each; in batches the pass peaks at
    a few MB."""
    n = 120
    src, dst = random_graph(np.random.default_rng(403), n, 1.0)
    w = np.ones(len(src))
    src, dst, w = canonical(src, dst, w, n)
    state = array_state(src, dst, w, 10**9, n, range(len(src)))
    tracemalloc.start()
    try:
        assert _augment_pass_vector(state) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"augment pass peaked at {peak / 2**20:.1f} MB"


def test_empty_edge_list_and_empty_selection():
    empty = np.empty(0, dtype=np.int64)
    assert assert_passes_agree(empty, empty, np.empty(0), 4, 2, []) == set()
    src, dst, w = canonical([0, 1, 2], [1, 2, 0], [5.0, 3.0, 1.0], 3)
    assert assert_passes_agree(src, dst, w, 3, 1, [], passes=1) == set()


def saturating_selection(rng, src, dst, bound, n):
    """Edge ids of a random maximal selection: edges in random order, each
    taken while both its endpoints have capacity, so most endpoints that
    can saturate do."""
    cap_out = [bound] * n
    cap_in = [bound] * n
    chosen = []
    for ei in rng.permutation(len(src)).tolist():
        s, d = int(src[ei]), int(dst[ei])
        if cap_out[s] > 0 and cap_in[d] > 0:
            cap_out[s] -= 1
            cap_in[d] -= 1
            chosen.append(ei)
    return chosen


def assert_swap_passes_agree(src, dst, w, n, bound, chosen, passes=3):
    """Run the reference swap pass and both forms of the array pass from the
    same selection, pass after pass; returns how many of them improved
    something."""
    loop = state_of(src, dst, w, bound, n, chosen)
    steps = [reference_swap(loop) for _ in range(passes)]
    assert_replays(src, dst, w, n, bound, chosen, steps)
    return sum(improved for _, improved, _ in steps)


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_swap_passes_agree_from_random_selections(bound):
    rng = np.random.default_rng(500 + bound)
    swaps = 0
    for trial in range(80):
        n = int(rng.integers(2, 24))
        src, dst = random_graph(rng, n, float(rng.uniform(0.1, 1.0)))
        if trial % 2:
            w = 10.0 ** rng.uniform(-3, 16, size=len(src))
        else:
            w = rng.integers(1, 1000, size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        pick = saturating_selection if trial % 3 else random_selection
        swaps += assert_swap_passes_agree(src, dst, w, n, bound, pick(rng, src, dst, bound, n))
    assert swaps  # the sweep must exercise evictions, not only no-ops


def test_greedy_seed_leaves_no_swap_candidate():
    """``_match_sorted`` skips the first round's swap pass: an edge the
    greedy seed left out met a saturated endpoint whose selected edges
    all weigh at least as much, so the filter admits none."""
    rng = np.random.default_rng(650)
    for trial in range(120):
        n = int(rng.integers(2, 30))
        bound = int(rng.integers(1, 5))
        src, dst = random_graph(rng, n, float(rng.uniform(0.1, 1.0)))
        if trial % 2:
            w = rng.choice([1.0, 2.0, 3.0, 2.0**53, 2.0**53 + 2], size=len(src))
        else:
            w = 10.0 ** rng.uniform(-3, 16, size=len(src))
        src, dst, w = sort_edges(src, dst, w, n)
        seed = greedy_seed_vector(src, dst, w, n, bound)
        state = array_state(src, dst, w, min(bound, n), n, seed)
        assert _swap_candidates(state) == [] == oracles.swap_candidates(
            state_of(src, dst, w, min(bound, n), n, seed)
        )


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_swap_victim_ties_go_to_the_lowest_far_end(bound):
    """Weights from {1, 2, 3} leave most saturated nodes with several
    selected edges tied on the lightest weight, so only the tie-break
    decides which one a swap evicts."""
    rng = np.random.default_rng(600 + bound)
    swaps = 0
    for _ in range(80):
        n = int(rng.integers(4, 20))
        src, dst = random_graph(rng, n, float(rng.uniform(0.3, 1.0)))
        w = rng.choice([1.0, 2.0, 3.0], p=[0.6, 0.1, 0.3], size=len(src))
        src, dst, w = canonical(src, dst, w, n)
        chosen = saturating_selection(rng, src, dst, bound, n)
        swaps += assert_swap_passes_agree(src, dst, w, n, bound, chosen)
    assert swaps


def test_swap_evicts_the_tied_out_edge_with_the_lowest_dst():
    """Node 0 is saturated at bound 2 by (0, 2) and (0, 3), both weight 1;
    (0, 1) of weight 5 displaces (0, 2), not (0, 3)."""
    src, dst, w = canonical([0, 0, 0], [1, 2, 3], [5.0, 1.0, 1.0], 4)
    ids = {(int(s), int(d)): ei for ei, (s, d) in enumerate(zip(src, dst))}
    chosen = [ids[0, 2], ids[0, 3]]
    assert assert_swap_passes_agree(src, dst, w, 4, 2, chosen, passes=1) == 1
    state = array_state(src, dst, w, 2, 4, chosen)
    _swap_pass(state, _swap_candidates(state))
    assert selection(state, 4) == {ids[0, 1], ids[0, 3]}


def test_swap_evicts_the_tied_in_edge_with_the_lowest_src():
    src, dst, w = canonical([1, 2, 3], [0, 0, 0], [5.0, 1.0, 1.0], 4)
    ids = {(int(s), int(d)): ei for ei, (s, d) in enumerate(zip(src, dst))}
    chosen = [ids[2, 0], ids[3, 0]]
    state = array_state(src, dst, w, 2, 4, chosen)
    _swap_pass(state, _swap_candidates(state))
    assert selection(state, 4) == {ids[1, 0], ids[3, 0]}
    assert assert_swap_passes_agree(src, dst, w, 4, 2, chosen, passes=1) == 1


def test_swap_bounds_come_from_the_lightest_selected_edge():
    """Node 0 is saturated at bound 2 by (0, 1) of weight 9 and (0, 2) of
    weight 1: (0, 3) of weight 2 beats the lightest and is a candidate."""
    src, dst, w = canonical([0, 0, 0], [1, 2, 3], [9.0, 1.0, 2.0], 4)
    ids = {(int(s), int(d)): ei for ei, (s, d) in enumerate(zip(src, dst))}
    state = array_state(src, dst, w, 2, 4, [ids[0, 1], ids[0, 2]])
    assert _swap_candidates(state) == [ids[0, 3]]
    assert _swap_pass(state, [ids[0, 3]]) is True
    assert selection(state, 4) == {ids[0, 1], ids[0, 3]}


def test_swap_passes_agree_with_bounds_past_every_degree():
    """No endpoint saturates, so every unselected positive edge is a
    candidate and goes in without evicting anything."""
    rng = np.random.default_rng(700)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        src, dst = random_graph(rng, n, float(rng.uniform(0.3, 1.0)))
        w = rng.integers(0, 4, size=len(src)) * 1.5
        src, dst, w = canonical(src, dst, w, n)
        for bound in (n - 1, n + 3, 10**9):
            chosen = random_selection(rng, src, dst, bound, n)
            assert_swap_passes_agree(src, dst, w, n, bound, chosen, passes=1)
            state = array_state(src, dst, w, bound, n, chosen)
            _swap_pass(state, _swap_candidates(state))
            assert selection(state, n) == set(np.flatnonzero(w > 0).tolist()) | set(chosen)
