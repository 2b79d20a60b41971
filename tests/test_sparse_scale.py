"""Memory and scale of the sparse traffic path.

The communication matrix is edge columns from the reduction through both
evaluators, so memory follows the link count, not ``nranks**2``. The
tier-1 test caps the traced peak of one 2,048-rank cell from
``reduce_matrix`` through ``evaluate_temporal``; dense n×n planes needed
~288 MB there. The ``slow`` test runs whole 32,768-rank cells through
``analyze_app`` — cells whose dense planes would take 8.6 GB each — and
runs in the scale CI job (``pytest -m slow``).
"""

import tracemalloc

import numpy as np
import pytest

from hfast.apps import synthesize
from hfast.cache import ReproCache
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import reduce_matrix
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app
from hfast.records import SEND_CALLS
from hfast.topology import analyze_topology

PEAK_CAP_MB = 16


def test_cactus_2048_analysis_peak_stays_small():
    nranks = 2048
    batch = synthesize("cactus", nranks).batch
    config = InterconnectConfig()
    tracemalloc.start()
    try:
        cm = reduce_matrix(batch, nranks)
        analyze_topology(cm)
        evaluate_temporal(cm, config, static=evaluate_hybrid(cm, config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cm.nonzero_links() == 6 * nranks
    assert peak < PEAK_CAP_MB * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def send_side(batch, nranks):
    """(bytes, messages, distinct links) of a batch's point-to-point sends."""
    sent = batch.call_mask(SEND_CALLS) & (batch.size > 0) & (batch.rank != batch.peer)
    count = batch.count[sent].astype(np.int64)
    pairs = batch.rank[sent].astype(np.int64) * nranks + batch.peer[sent]
    return (
        int((batch.size[sent].astype(np.int64) * count).sum()),
        int(count.sum()),
        len(np.unique(pairs)),
    )


@pytest.mark.slow
@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd"])
def test_analyze_app_at_32k_ranks(app, tmp_path):
    nranks = 32768
    summary = analyze_app(
        app, nranks, ReproCache(tmp_path), Observability.disabled(), store=False
    )
    total_bytes, total_messages, links = send_side(synthesize(app, nranks).batch, nranks)
    assert summary["total_bytes"] == total_bytes
    assert summary["total_messages"] == total_messages
    assert summary["nonzero_links"] == links
    assert summary["interconnect_temporal"]["circuit_bytes"] <= total_bytes
