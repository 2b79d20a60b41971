"""Differential identity: edge-column traffic against the dense planes.

:class:`hfast.matrix.CommMatrix` holds traffic as sparse edge columns,
and every stage after the reduction reads them directly. The dense
``nranks x nranks`` implementations they replaced live in
``tests/oracles.py``; here both paths run on the same inputs and must
agree exactly: the reduced matrix (densified), ``TopologyStats``, and the
static (greedy and matching) and temporal evaluation documents. Inputs
are the golden cells, the benchmark's cells, seeded random record
batches with send-only, receive-only and two-sided links, and seeded
random planes with message-only links and self-loops, which no record
batch can produce.
"""

import json

import numpy as np
import pytest

import oracles
from hfast.apps import synthesize
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import reduce_matrix
from hfast.records import RecordBatch
from hfast.topology import analyze_topology

GOLDEN_CELLS = [(app, n) for app in ("cactus", "gtc", "lbmhd", "paratec") for n in (8, 16)]
BENCHMARK_CELLS = [
    (app, n) for app in ("cactus", "gtc", "lbmhd") for n in (128, 512)
] + [("paratec", n) for n in (32, 48, 64)]


def doc(ev) -> str:
    return json.dumps(ev.to_dict(), sort_keys=True)


def assert_same_analysis(cm, dm, config):
    """Topology and every evaluator agree between the two representations."""
    topo, want_topo = analyze_topology(cm), oracles.analyze_topology(dm)
    assert topo.to_dict() == want_topo.to_dict()
    assert np.array_equal(topo.degrees, want_topo.degrees)
    for strategy in ("greedy", "matching"):
        ev = evaluate_hybrid(cm, config, strategy=strategy)
        want = oracles.evaluate_hybrid(dm, config, strategy=strategy)
        assert ev.circuits == want.circuits, strategy
        assert doc(ev) == doc(want), strategy
    assert doc(evaluate_temporal(cm, config)) == doc(oracles.evaluate_temporal(dm, config))


def assert_same_reduction(batch, nranks):
    """The edge reduction densifies to the dense reference's planes, and
    its rows are canonical: (src, dst)-ordered, one per active pair."""
    cm = reduce_matrix(batch, nranks)
    dm = oracles.reduce_matrix(batch, nranks)
    dense = oracles.to_planes(cm)
    assert np.array_equal(dense.bytes_matrix, dm.bytes_matrix)
    assert np.array_equal(dense.msg_matrix, dm.msg_matrix)
    canonical = oracles.from_planes(dm.bytes_matrix, dm.msg_matrix)
    for col in ("src", "dst", "bytes", "msgs"):
        assert np.array_equal(getattr(cm, col), getattr(canonical, col)), col
        assert getattr(cm, col).dtype == np.int64, col
    return cm, dm


@pytest.mark.parametrize("app,nranks", GOLDEN_CELLS + BENCHMARK_CELLS)
def test_app_cells_match_dense_reference(app, nranks):
    batch = synthesize(app, nranks).batch
    cm, dm = assert_same_reduction(batch, nranks)
    assert_same_analysis(cm, dm, InterconnectConfig())


def random_batch(rng, n):
    """Point-to-point records over random pairs: send-only, receive-only
    and two-sided links (the two sides with independent sizes and counts,
    zero counts included), plus self-sends, zero-size sends and
    non-point-to-point calls the reduction must drop."""
    parts = []
    for _ in range(int(rng.integers(1, 3 * n))):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        kind = rng.choice(["send", "recv", "both"])
        if kind != "recv":
            call = str(rng.choice(["MPI_Isend", "MPI_Send", "MPI_Sendrecv"]))
            parts.append((call, [a], int(rng.integers(1, 5000)), b, int(rng.integers(0, 6))))
        if kind != "send":
            call = str(rng.choice(["MPI_Irecv", "MPI_Recv"]))
            parts.append((call, [b], int(rng.integers(1, 5000)), a, int(rng.integers(0, 6))))
    ranks = np.arange(n)
    parts += [
        ("MPI_Isend", ranks, 64, ranks, 3),
        ("MPI_Isend", ranks, 0, (ranks + 1) % n, 2),
        ("MPI_Allreduce", ranks, 8, 0, 1),
        ("MPI_Wait", ranks, 0, ranks, 2),
    ]
    return RecordBatch.from_parts(parts)


def test_seeded_random_batches_match_dense_reference():
    rng = np.random.default_rng(47)
    for trial in range(25):
        n = int(rng.integers(2, 24))
        cm, dm = assert_same_reduction(random_batch(rng, n), n)
        config = InterconnectConfig(
            circuits_per_node=int(rng.integers(0, 4)),
            timesteps=int(rng.integers(1, 6)),
            reconfig_cost=float(rng.choice([0.0, 1e-6, 1e-3])),
            slice_seed=trial,
        )
        assert_same_analysis(cm, dm, config)


def test_seeded_random_planes_match_dense_reference():
    """Message-only links (messages, zero bytes) and self-loops: a link
    that carries only messages still owes packet latency, and self-loop
    traffic rides the packet fabric without ever getting a circuit."""
    rng = np.random.default_rng(53)
    for trial in range(25):
        n = int(rng.integers(2, 20))
        present = rng.random((n, n)) < float(rng.uniform(0.1, 0.9))
        bytes_m = rng.integers(1, 100, size=(n, n)) * present
        msg_m = rng.integers(1, 5, size=(n, n)) * present
        bytes_m[rng.random((n, n)) < 0.2] = 0  # message-only links
        cm = oracles.from_planes(bytes_m, msg_m)
        dm = oracles.DenseMatrix(n, bytes_m.astype(np.int64), msg_m.astype(np.int64))
        assert np.array_equal(oracles.to_planes(cm).msg_matrix, dm.msg_matrix)
        config = InterconnectConfig(
            circuits_per_node=int(rng.integers(1, 4)),
            timesteps=int(rng.integers(1, 6)),
            reconfig_cost=float(rng.choice([0.0, 1e-3])),
            slice_seed=trial,
        )
        assert_same_analysis(cm, dm, config)


def test_empty_traffic_matches_dense_reference():
    batch = RecordBatch.from_parts([("MPI_Allreduce", np.arange(4), 8, 0, 1)])
    cm, dm = assert_same_reduction(batch, 4)
    assert len(cm.src) == 0
    assert_same_analysis(cm, dm, InterconnectConfig())
