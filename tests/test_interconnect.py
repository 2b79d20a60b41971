import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from hfast import interconnect, matcher, matrix
from hfast.apps import synthesize
from hfast.cache import ReproCache
from hfast.interconnect import (
    InterconnectConfig,
    evaluate_hybrid,
    evaluate_temporal,
    slice_edge_volumes,
)
from hfast.matcher import match_edges
from hfast.matrix import CommMatrix, reduce_matrix
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [(app, n) for app in ("cactus", "gtc", "lbmhd", "paratec") for n in (8, 16)]


def golden_matrix(app: str, nranks: int) -> CommMatrix:
    fixture = json.loads((GOLDEN_DIR / f"{app}_p{nranks}.json").read_text())
    return oracles.from_planes(fixture["bytes_matrix"], fixture["msg_matrix"])


def circuits(cm: CommMatrix, budget: int, strategy: str = "greedy") -> list[tuple[int, int]]:
    config = InterconnectConfig(circuits_per_node=budget)
    return evaluate_hybrid(cm, config, strategy=strategy).circuits


def ring_matrix(n=8):
    recs = [oracles.CommRecord(r, "MPI_Isend", 1000, (r + 1) % n) for r in range(n)]
    return reduce_matrix(oracles.from_records(recs), n)


def test_ring_fully_provisionable():
    ev = evaluate_hybrid(ring_matrix(8), InterconnectConfig(circuits_per_node=2))
    assert ev.fully_provisionable
    assert ev.coverage == 1.0
    assert ev.packet_bytes == 0
    assert ev.speedup >= 1.0


def test_budget_limits_circuits():
    # paratec all-to-all at 8 ranks: 56 links, budget 2 -> 16 circuits max
    cm = reduce_matrix(synthesize("paratec", 8).batch, 8)
    greedy = circuits(cm, 2)
    assert len(greedy) == 16
    egress = [0] * 8
    ingress = [0] * 8
    for s, d in greedy:
        egress[s] += 1
        ingress[d] += 1
    assert max(egress) <= 2 and max(ingress) <= 2


def test_coverage_between_zero_and_one():
    cm = reduce_matrix(synthesize("lbmhd", 16).batch, 16)
    ev = evaluate_hybrid(cm, InterconnectConfig(circuits_per_node=4))
    assert 0.0 < ev.coverage < 1.0
    assert ev.circuit_bytes + ev.packet_bytes == cm.total_bytes
    assert not ev.fully_provisionable


def test_hybrid_never_slower_than_packet_only():
    for app in ("cactus", "gtc", "lbmhd", "paratec"):
        cm = reduce_matrix(synthesize(app, 16).batch, 16)
        ev = evaluate_hybrid(cm)
        assert ev.hybrid_time <= ev.packet_only_time
        assert ev.speedup >= 1.0


def test_empty_matrix_is_trivially_provisionable():
    ev = evaluate_hybrid(reduce_matrix(oracles.from_records([]), 4))
    assert ev.fully_provisionable
    assert ev.coverage == 0.0


def test_more_circuits_more_coverage():
    cm = reduce_matrix(synthesize("paratec", 8).batch, 8)
    low = evaluate_hybrid(cm, InterconnectConfig(circuits_per_node=1))
    high = evaluate_hybrid(cm, InterconnectConfig(circuits_per_node=4))
    assert high.coverage > low.coverage


# -- max-weight matching ------------------------------------------------------


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
@pytest.mark.parametrize("budget", [1, 2, 4])
def test_matching_never_below_greedy(app, nranks, budget):
    """The augmenting matcher covers at least as many bytes as greedy."""
    cm = golden_matrix(app, nranks)
    greedy = evaluate_hybrid(cm, InterconnectConfig(circuits_per_node=budget))
    matched = evaluate_hybrid(
        cm, InterconnectConfig(circuits_per_node=budget), strategy="matching"
    )
    assert matched.circuit_bytes >= greedy.circuit_bytes
    assert matched.coverage >= greedy.coverage


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_matching_respects_degree_budget(app, nranks):
    cm = golden_matrix(app, nranks)
    for budget in (1, 2, 4):
        matched = circuits(cm, budget, "matching")
        egress = [0] * nranks
        ingress = [0] * nranks
        for s, d in matched:
            egress[s] += 1
            ingress[d] += 1
        assert max(egress, default=0) <= budget
        assert max(ingress, default=0) <= budget
        assert len(set(matched)) == len(matched)


def test_matching_beats_greedy_on_adversarial_case():
    """Greedy grabs the heavy diagonal edge; the matcher swaps it out."""
    # Greedy takes (0,1)=10 first, saturating node 0's egress and node 1's
    # ingress at budget 1, blocking (0,2)=9 and (3,1)=9 which together
    # carry more. The matcher must recover that.
    w = np.zeros((4, 4), dtype=np.int64)
    w[0, 1], w[0, 2], w[3, 1] = 10, 9, 9
    cm = oracles.from_planes(w, w > 0)
    greedy_bytes = sum(int(w[s, d]) for s, d in circuits(cm, 1))
    matched_bytes = sum(int(w[s, d]) for s, d in circuits(cm, 1, "matching"))
    assert matched_bytes == 18 > greedy_bytes


def test_matching_empty_and_zero_budget():
    empty = np.empty(0, dtype=np.int64)
    assert match_edges(empty, empty, empty, 4, 4).tolist() == []
    one = np.array([0]), np.array([1]), np.array([5])
    assert match_edges(*one, 4, 0).tolist() == []
    assert match_edges(*one, 4, 1).tolist() == [0]
    assert circuits(CommMatrix(4, *one, np.array([1])), 0, "matching") == []


# -- temporal evaluator -------------------------------------------------------


def slice_traffic(cm: CommMatrix, timesteps: int, seed: int):
    return slice_edge_volumes(cm.src, cm.dst, cm.bytes, cm.msgs, timesteps, seed)


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_slice_traffic_conserves_volume(app, nranks):
    cm = golden_matrix(app, nranks)
    for T in (1, 3, 4, 7):
        eb, em = slice_traffic(cm, T, seed=0)
        assert eb.shape == em.shape == (T, len(cm.src))
        assert np.array_equal(eb.sum(axis=0), cm.bytes)
        assert np.array_equal(em.sum(axis=0), cm.msgs)
        assert np.all(eb >= 0) and np.all(em >= 0)


def test_slice_traffic_is_seeded_and_deterministic():
    cm = golden_matrix("lbmhd", 16)
    a = slice_traffic(cm, 4, seed=1)
    b = slice_traffic(cm, 4, seed=1)
    c = slice_traffic(cm, 4, seed=2)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_temporal_single_step_zero_cost_reduces_to_static_matching():
    """T=1, cost=0 must reproduce the static matching evaluation exactly."""
    for app, nranks in GOLDEN_CASES:
        cm = golden_matrix(app, nranks)
        config = InterconnectConfig(timesteps=1, reconfig_cost=0.0)
        temporal = evaluate_temporal(cm, config)
        static = evaluate_hybrid(cm, config, strategy="matching")
        assert temporal.n_reconfigs == 0
        assert temporal.circuit_bytes == static.circuit_bytes
        assert temporal.coverage == static.coverage
        assert temporal.hybrid_time == static.hybrid_time
        assert temporal.packet_only_time == static.packet_only_time


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_temporal_coverage_at_least_static_greedy(app, nranks):
    """Re-matching per timestep never covers less than one static greedy pass."""
    cm = golden_matrix(app, nranks)
    temporal = evaluate_temporal(cm, InterconnectConfig(timesteps=4))
    assert temporal.coverage >= temporal.static_coverage
    assert temporal.circuit_bytes + temporal.packet_bytes == cm.total_bytes
    assert len(temporal.per_step) == 4
    assert temporal.per_step[0]["changes"] == 0  # initial configuration is free


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_temporal_reuses_a_passed_static_baseline(app, nranks, monkeypatch):
    """A caller's greedy evaluation stands in for the temporal evaluator's
    own: same document, and the static evaluation is not run again."""
    cm = golden_matrix(app, nranks)
    config = InterconnectConfig(timesteps=4)
    want = evaluate_temporal(cm, config).to_dict()
    static = evaluate_hybrid(cm, config)

    def fail(*args, **kwargs):
        raise AssertionError("static baseline evaluated twice")

    monkeypatch.setattr("hfast.interconnect.evaluate_hybrid", fail)
    assert evaluate_temporal(cm, config, static=static).to_dict() == want


def test_temporal_rejects_a_matching_baseline():
    cm = golden_matrix("gtc", 8)
    matching = evaluate_hybrid(cm, InterconnectConfig(), strategy="matching")
    with pytest.raises(ValueError, match="greedy"):
        evaluate_temporal(cm, InterconnectConfig(), static=matching)


@pytest.mark.parametrize("timesteps", [1, 4, 7])
def test_evaluators_match_through_the_interconnect_name(timesteps, monkeypatch):
    """Both evaluators call the matcher as ``hfast.interconnect.match_edges``,
    the name the differential suites swap the reference in at and the
    benchmark's ``matcher.match`` span wraps: once per timestep in the
    temporal evaluator, once in a static matching evaluation, never in the
    static greedy one. The matching evaluation's circuits are the rows
    the matcher returned."""
    calls = []
    real = interconnect.match_edges

    def counting(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(interconnect, "match_edges", counting)
    cm = golden_matrix("lbmhd", 16)
    config = InterconnectConfig(timesteps=timesteps)
    static = evaluate_hybrid(cm, config)
    assert calls == []
    evaluate_temporal(cm, config, static=static)
    assert len(calls) == timesteps
    evaluate_temporal(cm, config)
    assert len(calls) == 2 * timesteps
    calls.clear()
    ev = evaluate_hybrid(cm, config, strategy="matching")
    assert len(calls) == 1
    assert ev.circuits == list(zip(cm.src[calls[0]].tolist(), cm.dst[calls[0]].tolist()))


def test_a_cell_orders_its_edges_once(tmp_path, monkeypatch):
    """A cell builds its matrix's tie order once, for the static greedy
    and every temporal step, and each constrained match builds its
    half-node rows once, for the greedy seed and the state together: a
    return to ordering or grouping the same edges per step fails here."""
    built = {"tie order": 0, "rows": 0}

    def counting(name, real):
        def build(*args):
            built[name] += 1
            return real(*args)

        return build

    monkeypatch.setattr(matrix, "tie_order", counting("tie order", matcher.tie_order))
    monkeypatch.setattr(matcher, "tie_order", counting("tie order", matcher.tie_order))
    monkeypatch.setattr(matcher, "_csr", counting("rows", matcher._csr))
    config = InterconnectConfig(timesteps=4)
    analyze_app("paratec", 16, ReproCache(tmp_path), Observability.disabled(), config, store=False)
    # Each node sends to 15 peers against 4 circuits: every step's match
    # binds, and the static greedy builds no rows.
    assert built == {"tie order": 1, "rows": 4}
    cm = golden_matrix("paratec", 16)
    built.update({"tie order": 0, "rows": 0})
    match_edges(cm.src, cm.dst, cm.bytes, 16, 4)
    assert built == {"tie order": 1, "rows": 1}


def test_reconfig_cost_discourages_switching():
    """An expensive switch-over must never increase the reconfig count."""
    cm = golden_matrix("paratec", 16)
    cheap = evaluate_temporal(cm, InterconnectConfig(timesteps=4, reconfig_cost=0.0))
    costly = evaluate_temporal(cm, InterconnectConfig(timesteps=4, reconfig_cost=10.0))
    assert costly.n_reconfigs <= cheap.n_reconfigs


def test_temporal_empty_matrix():
    ev = evaluate_temporal(reduce_matrix(oracles.from_records([]), 4), InterconnectConfig(timesteps=4))
    assert ev.coverage == 0.0
    assert ev.n_reconfigs == 0
    assert ev.per_step == []


# -- config validation --------------------------------------------------------

BAD_CONFIGS = [
    ({"circuits_per_node": -2}, "circuits_per_node"),
    ({"circuits_per_node": 2.5}, "circuits_per_node"),
    ({"circuits_per_node": True}, "circuits_per_node"),
    ({"circuit_bandwidth": 0.0}, "circuit_bandwidth"),
    ({"packet_bandwidth": float("inf")}, "packet_bandwidth"),
    ({"circuit_latency": -1e-6}, "circuit_latency"),
    ({"packet_latency": float("nan")}, "packet_latency"),
    ({"timesteps": 0}, "timesteps"),
    ({"timesteps": 2.0}, "timesteps"),
    ({"timesteps": 4097}, "timesteps"),
    ({"reconfig_cost": -1.0}, "reconfig_cost"),
    ({"reconfig_cost": float("nan")}, "reconfig_cost"),
    ({"reconfig_cost": "0.001"}, "reconfig_cost"),
    ({"slice_seed": 1.5}, "slice_seed"),
    ({"slice_seed": True}, "slice_seed"),
]


@pytest.mark.parametrize("kwargs,field", BAD_CONFIGS, ids=[f for _, f in BAD_CONFIGS])
def test_config_rejects_out_of_range_values(kwargs, field):
    with pytest.raises(ValueError, match=field):
        InterconnectConfig(**kwargs)


def test_config_names_every_bad_field_at_once():
    with pytest.raises(ValueError) as err:
        InterconnectConfig(circuits_per_node=-2, timesteps=0, reconfig_cost=-1.0)
    for field in ("circuits_per_node", "timesteps", "reconfig_cost"):
        assert field in str(err.value)


def test_config_accepts_boundary_values():
    config = InterconnectConfig(circuits_per_node=0, timesteps=1, reconfig_cost=0.0)
    ev = evaluate_temporal(ring_matrix(8), config)
    assert ev.timesteps == 1 and ev.n_reconfigs == 0 and ev.coverage == 0.0
