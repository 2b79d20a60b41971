from hfast.apps import synthesize
from hfast.matrix import reduce_matrix
from hfast.topology import analyze_topology
from oracles import CommRecord, from_records


def ring_matrix(n=8):
    recs = [CommRecord(r, "MPI_Isend", 100, (r + 1) % n) for r in range(n)]
    return reduce_matrix(from_records(recs), n)


def test_ring_degree_is_two():
    ts = analyze_topology(ring_matrix(8))
    assert ts.max_degree == 2
    assert ts.avg_degree == 2.0
    assert ts.degree_histogram == {2: 8}


def test_concentration_monotonic_and_bounded():
    trace = synthesize("lbmhd", 16)
    cm = reduce_matrix(trace.batch, 16)
    ts = analyze_topology(cm)
    ks = sorted(ts.concentration)
    values = [ts.concentration[k] for k in ks]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)
    # top-16 partners out of <=15 possible covers everything
    assert values[-1] == 1.0


def test_ring_concentration_top2_covers_all():
    ts = analyze_topology(ring_matrix(8))
    assert ts.concentration[2] == 1.0


def test_empty_matrix():
    ts = analyze_topology(reduce_matrix(from_records([]), 4))
    assert ts.max_degree == 0
    assert all(v == 0.0 for v in ts.concentration.values())


def test_to_dict_round_trips_to_json_types():
    ts = analyze_topology(ring_matrix(4))
    d = ts.to_dict()
    assert d["max_degree"] == 2
    assert all(isinstance(k, str) for k in d["degree_histogram"])
    assert all(isinstance(k, str) for k in d["concentration"])
