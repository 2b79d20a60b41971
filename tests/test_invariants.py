"""Property-based invariant tests for the trace synthesizers.

Seeded stdlib ``random`` drives (nranks, overrides) sampling — no new
dependencies — and every sampled case must uphold the structural
invariants the paper's analysis relies on:

- the batch generators and the per-record reference generators in
  ``tests/oracles.py`` serialize to byte-identical cache documents
  (timing fields included);
- every byte sent is received (send/recv matrix agreement);
- symmetric apps (cactus, lbmhd, paratec) produce symmetric matrices;
- topology degree never exceeds nranks - 1;
- top-k traffic concentration is monotone in k and reaches 1.0;
- synthesized LogGP times are strictly positive and monotone
  nondecreasing in message size at a fixed (rank, peer, call).
"""

import json
import random

import numpy as np
import pytest

import oracles
from hfast.apps import available_apps, synthesize
from hfast.matrix import reduce_matrix
from hfast.topology import analyze_topology

SYMMETRIC_APPS = ("cactus", "lbmhd", "paratec")  # gtc shifts particles one way

OVERRIDE_KNOBS = {
    "cactus": ("steps", "ghost_bytes"),
    "gtc": ("steps", "particle_bytes"),
    "lbmhd": ("steps", "lattice_bytes"),
    "paratec": ("fft_cycles", "grid_bytes"),
}


def sample_cases(app: str, n_cases: int = 8) -> list[tuple[int, dict]]:
    rng = random.Random(f"hfast-{app}")
    cases = []
    for _ in range(n_cases):
        nranks = rng.choice([1, 2, 3, 4, 5, 8, 12, 16, 24, 27, 32, 48, 64])
        overrides = {}
        steps_key, bytes_key = OVERRIDE_KNOBS[app]
        if rng.random() < 0.6:
            overrides[steps_key] = rng.randint(1, 20)
        if rng.random() < 0.4:
            overrides[bytes_key] = rng.choice([64, 4096, 65536, 300000])
        cases.append((nranks, overrides))
    return cases


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_vector_scalar_documents_identical(app):
    for nranks, overrides in sample_cases(app):
        vec = synthesize(app, nranks, dict(overrides))
        sca = oracles.synthesize(app, nranks, dict(overrides))
        assert json.dumps(oracles.to_document(vec)) == json.dumps(oracles.to_document(sca)), (
            f"divergence from the reference for {app} p{nranks} {overrides}"
        )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_byte_and_message_conservation(app):
    """Send-derived and recv-derived matrices agree pairwise."""
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        sends, recvs = {}, {}
        for r in oracles.to_records(trace.batch):
            if r.size <= 0:
                continue
            if r.is_send:
                sends[(r.rank, r.peer)] = sends.get((r.rank, r.peer), 0) + r.bytes_moved
            elif r.is_recv:
                recvs[(r.peer, r.rank)] = recvs.get((r.peer, r.rank), 0) + r.bytes_moved
        assert sends == recvs, f"conservation violated for {app} p{nranks} {overrides}"
        # Call counts balance too: one receive posted per send.
        totals = trace.batch.call_totals
        assert totals.get("MPI_Isend", 0) == totals.get("MPI_Irecv", 0)


@pytest.mark.parametrize("app", SYMMETRIC_APPS)
def test_symmetric_apps_yield_symmetric_matrices(app):
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        cm = reduce_matrix(trace.batch, nranks)
        # Transposing swaps the columns; re-sorted into (src, dst) order
        # the links must come out unchanged.
        order = np.lexsort((cm.src, cm.dst))
        assert np.array_equal(cm.dst[order], cm.src) and np.array_equal(cm.src[order], cm.dst)
        assert np.array_equal(cm.bytes[order], cm.bytes), (
            f"asymmetric matrix for {app} p{nranks} {overrides}"
        )
        assert np.array_equal(cm.msgs[order], cm.msgs)


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_record_list_and_batch_reduce_to_equal_planes(app):
    """reduce_matrix yields identical edge columns for a synthesized
    batch (narrow int32 columns) and the same records written out one by
    one and columnarized again by the reference (int64 columns, as the
    legacy JSON reader builds them): equal src/dst/bytes/msgs columns.
    """
    for nranks, overrides in sample_cases(app, n_cases=4):
        trace = synthesize(app, nranks, dict(overrides))
        from_batch = reduce_matrix(trace.batch, nranks)
        from_list = reduce_matrix(oracles.from_records(oracles.to_records(trace.batch)), nranks)
        for col in ("src", "dst", "bytes", "msgs"):
            assert np.array_equal(getattr(from_batch, col), getattr(from_list, col)), (
                f"{col} column diverges for {app} p{nranks} {overrides}"
            )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_topology_degree_bounded(app):
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        topo = analyze_topology(reduce_matrix(trace.batch, nranks))
        assert topo.max_degree <= max(0, nranks - 1), (
            f"degree {topo.max_degree} exceeds bound for {app} p{nranks}"
        )
        assert all(0 <= d <= nranks - 1 for d in topo.degrees.tolist()) or nranks == 1


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_concentration_monotone_and_complete(app):
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        cm = reduce_matrix(trace.batch, nranks)
        # Include a k that covers every possible partner so the fractions
        # must account for all traffic.
        ks = (1, 2, 4, 8, 16, max(1, nranks))
        conc = analyze_topology(cm, ks=ks).concentration
        values = [conc[k] for k in ks]
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), (
            f"concentration not monotone for {app} p{nranks}: {values}"
        )
        if cm.total_bytes > 0:
            assert values[-1] == pytest.approx(1.0), (
                f"top-{ks[-1]} concentration should capture all traffic"
            )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_times_positive_and_bounded(app):
    """Every sampled case synthesizes strictly positive, finite times."""
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        b = trace.ensure_batch()
        assert b.has_times, f"untimed batch for {app} p{nranks}"
        for col in (b.total_time, b.min_time, b.max_time):
            assert np.all(np.isfinite(col)) and np.all(col > 0.0), (
                f"non-positive time for {app} p{nranks} {overrides}"
            )
        assert np.all(b.min_time <= b.max_time)


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_times_monotone_in_size_per_stream(app):
    """Within one (rank, peer, call) stream, mean time tracks message size."""
    for nranks, overrides in sample_cases(app, n_cases=4):
        trace = synthesize(app, nranks, dict(overrides))
        streams: dict[tuple, list[tuple[int, float]]] = {}
        for r in oracles.to_records(trace.batch):
            if r.count > 0:
                streams.setdefault((r.rank, r.peer, r.call), []).append(
                    (r.size, r.total_time / r.count)
                )
        for key, pairs in streams.items():
            pairs.sort()
            means = [m for _, m in pairs]
            assert means == sorted(means), (
                f"time not monotone in size for {app} p{nranks} stream {key}"
            )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_backend_timing_identity(app):
    """The batch generators and the per-record reference synthesize
    bit-identical timing columns."""
    for nranks, overrides in sample_cases(app, n_cases=4):
        vec = synthesize(app, nranks, dict(overrides)).ensure_batch()
        sca = oracles.synthesize(app, nranks, dict(overrides)).ensure_batch()
        assert np.array_equal(vec.total_time, sca.total_time)
        assert np.array_equal(vec.min_time, sca.min_time)
        assert np.array_equal(vec.max_time, sca.max_time)


def test_sampling_is_deterministic():
    """The property suite must not flake: same seed, same cases."""
    for app in available_apps():
        assert sample_cases(app) == sample_cases(app)
