import hashlib

import numpy as np
import pytest

import oracles
from hfast.cache import ReproCache
from hfast.cli import main
from hfast.obs.metrics import Histogram
from hfast.obs.profile import Observability
from hfast.pipeline import (
    _bucket_table,
    _observe_latencies,
    analyze_app,
    discover_scales,
    run_pipeline,
)
from hfast.records import RecordBatch


def test_discover_scales_fallback_for_uncached_app(tmp_path):
    cache = ReproCache(tmp_path)
    scales = discover_scales(cache, ["cactus"])
    assert scales["cactus"] == [16, 64]


def test_analyze_app_emits_summary(tmp_path):
    obs = Observability(enabled=True)
    cache = ReproCache(tmp_path)
    summary = analyze_app("cactus", 16, cache, obs, store=False)
    assert summary["total_bytes"] > 0
    assert summary["topology"]["max_degree"] == 4
    assert summary["interconnect"]["fully_provisionable"] is True
    kinds = [e["event"] for e in obs.events]
    assert "app_summary" in kinds
    span_names = {e["name"] for e in obs.events if e["event"] == "span"}
    assert {"analyze_app", "cache_load", "matrix_reduce", "topology_degree", "interconnect_eval"} <= span_names
    # message-size histogram picked up the ghost-zone exchanges
    assert obs.metrics.histogram("msg_size_bytes").count > 0


def test_run_pipeline_all_apps_from_a_warm_cache(tmp_path):
    apps = ["cactus", "gtc", "lbmhd", "paratec"]
    scales = {app: [8, 16] for app in apps}
    run_pipeline(apps=apps, scales=scales, cache_dir=str(tmp_path),
                 obs=Observability.disabled(), argv=["test"])
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=apps,
        scales=scales,
        cache_dir=str(tmp_path),
        obs=obs,
        store=False,
        argv=["test"],
    )
    results = out["results"]
    assert len(results) == 8  # one per (app, nranks) cell
    man = out["manifest"]
    assert man["git_sha"] != ""
    assert man["cache"]["hits"] == 8
    assert man["cache"]["misses"] == 0
    # manifest emitted first and re-emitted with cache stats at the end
    assert obs.events[0]["event"] == "manifest"
    assert obs.events[0]["cache"] is None or obs.events[0]["cache"]  # start emit
    manifests = [e for e in obs.events if e["event"] == "manifest"]
    assert manifests[-1]["cache"]["hits"] == 8


def test_run_pipeline_synthesizes_and_stores_on_miss(tmp_path):
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=["gtc"],
        scales={"gtc": [4]},
        cache_dir=str(tmp_path),
        obs=obs,
        argv=["test"],
    )
    assert out["manifest"]["cache"]["misses"] == 1
    assert out["manifest"]["cache"]["stores"] == 1
    stored = ReproCache(tmp_path).list_entries()
    assert [p.name for p in stored] == [ReproCache(tmp_path).path_for("gtc", 4).name]
    # stored file is a format-5 entry with a timing descriptor
    header, _ = oracles.from_entry(stored[0].read_bytes())
    assert header["format"] == 5
    assert header["timing"]["model"] == "loggp"
    # second run hits the cache
    obs2 = Observability(enabled=True)
    out2 = run_pipeline(
        apps=["gtc"], scales={"gtc": [4]}, cache_dir=str(tmp_path), obs=obs2, argv=["test"]
    )
    assert out2["manifest"]["cache"]["hits"] == 1
    assert out2["results"][0]["total_bytes"] == out["results"][0]["total_bytes"]


def test_run_pipeline_disabled_obs_produces_same_results(tmp_path):
    enabled = run_pipeline(
        apps=["cactus"],
        scales={"cactus": [16]},
        cache_dir=str(tmp_path),
        obs=Observability(enabled=True),
        store=False,
        argv=["test"],
    )
    disabled = run_pipeline(
        apps=["cactus"],
        scales={"cactus": [16]},
        cache_dir=str(tmp_path),
        obs=Observability.disabled(),
        store=False,
        argv=["test"],
    )
    assert enabled["results"] == disabled["results"]


def latency_batch(rng, n):
    """A timed batch whose mean latencies (``total_time / count`` in
    microseconds) mix zeros, powers of two from 2**-4 to 2**11, values in
    (0, 1] and larger ones, with some zero counts."""
    pool = np.concatenate(([0.0], 2.0 ** np.arange(-4, 12), rng.uniform(0, 1, 8),
                           rng.uniform(1, 5000, 8)))
    count = rng.integers(0, 40, n)
    zeros = np.zeros(n, dtype=np.int32)
    b = RecordBatch(zeros, zeros.astype(np.int16), zeros, zeros, count, calls=("MPI_Isend",))
    total = rng.choice(pool, n) * count / 1e6
    b.set_times(total, total, total)
    return b


def test_latency_table_equals_the_sorted_distinct_latency_path():
    """The latency table, one bincount by bucket, equals the table built
    from the sorted distinct latencies, with obs off and on; with obs on
    the histograms get the distinct latencies and their weights."""
    rng = np.random.default_rng(20)
    for trial in range(40):
        b = latency_batch(rng, int(rng.integers(1, 300)))
        mask = b.count > 0
        mean = (b.total_time[mask] / b.count[mask]) * 1e6
        uniq, inv = np.unique(mean, return_inverse=True)
        weights = np.bincount(inv, weights=b.count[mask].astype(np.float64)).astype(np.int64)
        want = _bucket_table(uniq, weights) if mask.any() else {}
        assert _observe_latencies(b, "toy", Observability.disabled()) == want
        obs = Observability(enabled=True)
        assert _observe_latencies(b, "toy", obs) == want
        hist = Histogram("call_latency_usec")
        hist.observe_many(uniq, weights)
        for name in ("call_latency_usec", "call_latency_usec.toy"):
            assert obs.metrics.histogram(name).to_dict() == hist.to_dict()
    # The seeded batches reach every edge case.
    b = latency_batch(np.random.default_rng(20), 300)
    mean = (b.total_time / np.maximum(b.count, 1)) * 1e6
    assert (mean == 0).any() and ((mean > 0) & (mean < 1)).any() and (mean == 1).any()
    assert np.isin(mean, 2.0 ** np.arange(-4, 12)).sum() > 10


#: sha256 of the ``--metrics-out`` document of an obs-on paratec@128 run
#: (synthesized, not stored), as written when the latency table came from
#: the sorted distinct latencies.
PARATEC_128_METRICS = "4f8e54d81208fdbea56e40972e06eb7dc164f0a09272bbdbeb59aa01a5c47107"


def test_obs_on_metrics_bytes_for_paratec_128(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert main(["analyze", "--apps", "paratec", "--scales", "128", "--no-store",
                 "--cache-dir", str(tmp_path / "cache"), "--metrics-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PARATEC_128_METRICS


@pytest.mark.parametrize("profiled", [False, True])
def test_call_totals_are_summed_once_per_cell(tmp_path, monkeypatch, profiled):
    """A batch sums its per-call counts once, however many of the cache
    check, the summary and the metrics counters read them."""
    sums = []
    real = RecordBatch._sum_calls
    monkeypatch.setattr(RecordBatch, "_sum_calls", lambda b: sums.append(len(b)) or real(b))

    def cell(app, nranks, cache, **kw):
        sums.clear()
        obs = Observability(enabled=True) if profiled else Observability.disabled()
        summary = analyze_app(app, nranks, cache, obs, **kw)
        assert summary["call_totals"] and len(sums) == 1, (app, nranks, kw, sums)

    cache = ReproCache(tmp_path)
    cell("gtc", 16, cache, store=True)  # cold: synthesized, then stored
    assert (cache.stats.misses, cache.stats.stores) == (1, 1)
    cell("gtc", 16, cache, store=True)  # warm: the stored entry
    cell("gtc", 16, cache, store=False, timing_seed=3)  # warm, re-timed
    assert cache.stats.hits == 2
