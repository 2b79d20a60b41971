import pytest

from hfast.apps import available_apps, synthesize
from hfast.matrix import reduce_matrix
from hfast.records import Trace
from oracles import to_dicts, to_records


def test_available_apps_cover_paper_suite():
    assert {"cactus", "gtc", "lbmhd", "paratec"} <= set(available_apps())


def test_unknown_app_raises():
    with pytest.raises(KeyError, match="unknown app"):
        synthesize("nosuchapp", 8)


def test_bad_nranks_raises():
    with pytest.raises(ValueError):
        synthesize("cactus", 0)


def test_a_trace_is_one_batch():
    trace = synthesize("gtc", 4)
    assert trace.ensure_batch() is trace.batch
    with pytest.raises(TypeError):
        Trace("gtc", 4)  # no batch, no trace


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_deterministic(app):
    a = synthesize(app, 16)
    b = synthesize(app, 16)
    assert to_dicts(a.batch) == to_dicts(b.batch)


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_send_recv_conservation(app):
    """Every byte sent is received: send and recv matrices must agree."""
    trace = synthesize(app, 16)
    sends = {}
    recvs = {}
    for r in to_records(trace.batch):
        if r.size <= 0:
            continue
        if r.is_send:
            sends[(r.rank, r.peer)] = sends.get((r.rank, r.peer), 0) + r.bytes_moved
        elif r.is_recv:
            recvs[(r.peer, r.rank)] = recvs.get((r.peer, r.rank), 0) + r.bytes_moved
    assert sends == recvs


def test_overrides_scale_volume():
    small = synthesize("cactus", 8, {"steps": 4})
    big = synthesize("cactus", 8, {"steps": 12})
    cm_small = reduce_matrix(small.batch, 8)
    cm_big = reduce_matrix(big.batch, 8)
    assert cm_big.total_bytes == 3 * cm_small.total_bytes


def test_paratec_is_all_to_all():
    trace = synthesize("paratec", 8)
    cm = reduce_matrix(trace.batch, 8)
    assert cm.nonzero_links() == 8 * 7


def test_gtc_is_ring():
    trace = synthesize("gtc", 8)
    cm = reduce_matrix(trace.batch, 8)
    assert cm.nonzero_links() == 8  # each rank sends to exactly one neighbour
