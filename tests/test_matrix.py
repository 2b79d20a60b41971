import numpy as np

from hfast.matrix import reduce_matrix
from oracles import CommRecord, from_records


def links(cm):
    """(src, dst, bytes, msgs) per row of a matrix's edge columns."""
    return list(zip(cm.src.tolist(), cm.dst.tolist(), cm.bytes.tolist(), cm.msgs.tolist()))


def test_send_side_attribution():
    recs = [CommRecord(0, "MPI_Isend", 100, 1, count=2)]
    cm = reduce_matrix(from_records(recs), 2)
    assert links(cm) == [(0, 1, 200, 2)]


def test_recv_records_fill_missing_sends_without_double_count():
    # Both sides of the same exchange recorded: volume counted once.
    recs = [
        CommRecord(0, "MPI_Isend", 100, 1, count=2),
        CommRecord(1, "MPI_Irecv", 100, 0, count=2),
        # Recv-only exchange: still lands in the matrix as (2 -> 1).
        CommRecord(1, "MPI_Irecv", 50, 2, count=1),
    ]
    cm = reduce_matrix(from_records(recs), 3)
    assert links(cm) == [(0, 1, 200, 2), (2, 1, 50, 1)]
    assert cm.total_bytes == 250


def test_non_ptp_and_self_records_ignored():
    recs = [
        CommRecord(0, "MPI_Allreduce", 8, 0, count=5),
        CommRecord(0, "MPI_Wait", 0, 0, count=5),
        CommRecord(1, "MPI_Isend", 64, 1, count=5),  # self-send
    ]
    cm = reduce_matrix(from_records(recs), 2)
    assert cm.total_bytes == 0
    assert cm.total_messages == 0
    assert links(cm) == []


def test_top_peers_by_total_volume():
    recs = [
        CommRecord(0, "MPI_Isend", 1000, 1),
        CommRecord(0, "MPI_Isend", 10, 2),
        CommRecord(2, "MPI_Isend", 500, 0),
    ]
    cm = reduce_matrix(from_records(recs), 3)
    # rank 0's heaviest partner by total (send+recv) volume is rank 1
    assert cm.top_peers(0, k=1) == [(1, 1000)]
    assert cm.top_peers(0) == [(1, 1000), (2, 510)]
    assert cm.top_peers(1) == [(0, 1000)]


def test_matrix_dtype_and_shape():
    cm = reduce_matrix(from_records([]), 4)
    for col in (cm.src, cm.dst, cm.bytes, cm.msgs):
        assert col.shape == (0,)
        assert col.dtype == np.int64
    assert cm.total_bytes == 0
    assert cm.nonzero_links() == 0
    assert cm.top_peers(0) == []


def test_top_peers_breaks_ties_by_lowest_peer():
    """On a ring every rank's two neighbours carry equal volume: the
    lower rank id comes first, however the array sort orders ties."""
    for n in (8, 64):
        recs = [CommRecord(r, "MPI_Isend", 1000, (r + 1) % n) for r in range(n)]
        cm = reduce_matrix(from_records(recs), n)
        for r in range(n):
            lo, hi = sorted(((r - 1) % n, (r + 1) % n))
            assert cm.top_peers(r, k=1) == [(lo, 1000)]
            assert cm.top_peers(r) == [(lo, 1000), (hi, 1000)]
