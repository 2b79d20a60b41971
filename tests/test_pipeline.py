import json

import numpy as np

from hfast.cache import ReproCache
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app, discover_scales, run_pipeline


def test_discover_scales_from_seed_cache(repo_cache_dir):
    cache = ReproCache(repo_cache_dir, readonly=True)
    scales = discover_scales(cache, ["cactus", "gtc", "lbmhd", "paratec"])
    assert scales["cactus"] == [8, 16, 27, 64, 256]
    assert scales["gtc"] == [16, 32, 64, 256]
    assert scales["paratec"] == [16]


def test_discover_scales_fallback_for_uncached_app(tmp_path):
    cache = ReproCache(tmp_path)
    scales = discover_scales(cache, ["cactus"])
    assert scales["cactus"] == [16, 64]


def test_analyze_app_emits_summary(repo_cache_dir):
    obs = Observability(enabled=True)
    cache = ReproCache(repo_cache_dir, readonly=True)
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


def test_run_pipeline_all_seed_apps(repo_cache_dir):
    obs = Observability(enabled=True)
    out = run_pipeline(
        apps=["cactus", "gtc", "lbmhd", "paratec"],
        cache_dir=str(repo_cache_dir),
        obs=obs,
        store=False,
        argv=["test"],
    )
    results = out["results"]
    assert len(results) == 13  # one per cached (app, nranks) with default overrides
    man = out["manifest"]
    assert man["git_sha"] != ""
    assert man["cache"]["hits"] == 13
    assert man["cache"]["misses"] == 0
    # manifest emitted first and re-emitted with cache stats at the end
    assert obs.events[0]["event"] == "manifest"
    assert obs.events[0]["cache"] is None or obs.events[0]["cache"]  # start emit
    manifests = [e for e in obs.events if e["event"] == "manifest"]
    assert manifests[-1]["cache"]["hits"] == 13


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
    # stored file is a format-4 entry with a timing descriptor
    with np.load(stored[0], allow_pickle=False) as npz:
        meta = json.loads(npz["meta"].tobytes())
    assert meta["format"] == 4
    assert meta["timing"]["model"] == "loggp"
    # second run hits the cache
    obs2 = Observability(enabled=True)
    out2 = run_pipeline(
        apps=["gtc"], scales={"gtc": [4]}, cache_dir=str(tmp_path), obs=obs2, argv=["test"]
    )
    assert out2["manifest"]["cache"]["hits"] == 1
    assert out2["results"][0]["total_bytes"] == out["results"][0]["total_bytes"]


def test_run_pipeline_disabled_obs_produces_same_results(repo_cache_dir):
    enabled = run_pipeline(
        apps=["cactus"],
        scales={"cactus": [16]},
        cache_dir=str(repo_cache_dir),
        obs=Observability(enabled=True),
        store=False,
        argv=["test"],
    )
    disabled = run_pipeline(
        apps=["cactus"],
        scales={"cactus": [16]},
        cache_dir=str(repo_cache_dir),
        obs=Observability.disabled(),
        store=False,
        argv=["test"],
    )
    assert enabled["results"] == disabled["results"]
