import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
from hfast.apps import synthesize
from hfast.atomic import atomic_write
from hfast.cache import (
    CacheValidationError,
    ReproCache,
    cache_key,
    cache_path,
    validate_document,
)
from hfast.timing import TimingModel


def valid_doc(nranks=2):
    return {
        "format": 2,
        "metadata": {"app": "toy", "nranks": nranks, "overrides": {}},
        "call_totals": {"MPI_Isend": 3},
        "records": [
            {
                "rank": 0,
                "call": "MPI_Isend",
                "size": 1024,
                "peer": 1,
                "region": "steady",
                "count": 3,
                "total_time": 0.0,
                "min_time": 0.0,
                "max_time": 0.0,
            }
        ],
    }


def valid_doc_v3(nranks=2):
    doc = valid_doc(nranks)
    doc["format"] = 3
    doc["metadata"]["timing"] = {"model": "loggp", "seed": 0, "params": {}}
    rec = doc["records"][0]
    rec["total_time"], rec["min_time"], rec["max_time"] = 3e-5, 0.9e-5, 1.2e-5
    return doc


class TestKeying:
    def test_key_matches_seed_corpus(self):
        # Known filenames from the checked-in seed cache.
        assert cache_key("cactus", 8, {}) == "d0f189f7c632"
        assert cache_key("cactus", 8, {"steps": 4}) == "31d27bb5ad70"
        assert cache_key("paratec", 16, {"fft_cycles": 1}) == "478e0f436f59"

    def test_path_layout(self, tmp_path):
        p = cache_path(tmp_path, "cactus", 8)
        assert p.name == "cactus_p8_d0f189f7c632.cols"

    def test_overrides_change_key(self):
        assert cache_key("gtc", 16, {}) != cache_key("gtc", 16, {"steps": 2})


class TestValidator:
    def test_valid_document_passes(self):
        validate_document(valid_doc(), "x.json")

    def test_error_names_offending_file(self):
        doc = valid_doc()
        del doc["records"]
        with pytest.raises(CacheValidationError, match="bad/file.json"):
            validate_document(doc, "bad/file.json")

    def test_rejects_wrong_format_version(self):
        doc = valid_doc()
        doc["format"] = 1
        with pytest.raises(CacheValidationError, match="format version"):
            validate_document(doc, "f.json")

    @pytest.mark.parametrize("key", ["format", "metadata", "call_totals", "records"])
    def test_rejects_missing_top_key(self, key):
        doc = valid_doc()
        del doc[key]
        with pytest.raises(CacheValidationError, match=key):
            validate_document(doc, "f.json")

    @pytest.mark.parametrize("key", ["rank", "call", "size", "peer", "count"])
    def test_rejects_missing_record_field(self, key):
        doc = valid_doc()
        del doc["records"][0][key]
        with pytest.raises(CacheValidationError, match=f"records\\[0\\] missing required field '{key}'"):
            validate_document(doc, "f.json")

    @pytest.mark.parametrize("key", ["size", "count", "total_time"])
    def test_rejects_negative_values(self, key):
        doc = valid_doc()
        doc["records"][0][key] = -1
        doc["call_totals"] = {"MPI_Isend": doc["records"][0]["count"]}
        with pytest.raises(CacheValidationError, match="non-negative"):
            validate_document(doc, "f.json")

    def test_rejects_boolean_nranks(self):
        doc = valid_doc()
        doc["metadata"]["nranks"] = True
        with pytest.raises(CacheValidationError, match="nranks must be a positive int"):
            validate_document(doc, "f.json")

    def test_rejects_out_of_range_peer(self):
        doc = valid_doc(nranks=2)
        doc["records"][0]["peer"] = 5
        with pytest.raises(CacheValidationError, match="out of range"):
            validate_document(doc, "f.json")

    def test_rejects_inconsistent_call_totals(self):
        doc = valid_doc()
        doc["call_totals"] = {"MPI_Isend": 999}
        with pytest.raises(CacheValidationError, match="call_totals"):
            validate_document(doc, "f.json")

    def test_rejects_multi_region_document(self):
        doc = valid_doc()
        second = dict(doc["records"][0], peer=0, region="init")
        doc["records"].append(second)
        doc["records"].append(dict(second, region="steady"))
        doc["call_totals"] = {"MPI_Isend": 9}
        with pytest.raises(
            CacheValidationError,
            match=r"f\.json: records\[1\]\.region='init' differs from "
            r"records\[0\]\.region='steady'",
        ):
            validate_document(doc, "f.json")

    def test_seed_corpus_validates(self, repo_cache_dir):
        files = sorted(repo_cache_dir.glob("*.json"))
        assert len(files) >= 16
        for path in files:
            validate_document(json.loads(path.read_text()), path)

    def test_valid_format3_document_passes(self):
        validate_document(valid_doc_v3(), "x.json")

    def test_format3_allows_null_timing(self):
        doc = valid_doc_v3()
        doc["metadata"]["timing"] = None
        validate_document(doc, "x.json")

    def test_format3_requires_timing_key(self):
        doc = valid_doc_v3()
        del doc["metadata"]["timing"]
        with pytest.raises(CacheValidationError, match="timing"):
            validate_document(doc, "f.json")

    @pytest.mark.parametrize("key", ["model", "seed"])
    def test_format3_timing_descriptor_fields_required(self, key):
        doc = valid_doc_v3()
        del doc["metadata"]["timing"][key]
        with pytest.raises(CacheValidationError, match=key):
            validate_document(doc, "f.json")

    def test_rejects_min_time_above_max_time(self):
        doc = valid_doc_v3()
        doc["records"][0]["min_time"] = 5.0
        with pytest.raises(CacheValidationError, match="min_time"):
            validate_document(doc, "f.json")

    def test_format2_does_not_require_timing(self):
        validate_document(valid_doc(), "x.json")  # no metadata.timing key

    def test_rejects_nan_time(self, tmp_path):
        doc = valid_doc_v3()
        doc["records"][0]["total_time"] = float("nan")
        assert_rejected(tmp_path, doc, r"total_time\[0\] must be non-negative, got nan")

    def test_rejects_integer_beyond_64_bits(self, tmp_path):
        doc = valid_doc()
        doc["records"][0]["size"] = 2**64
        assert_rejected(tmp_path, doc, r"records\[0\]\.size must be a 64-bit integer, got 18446744073709551616")

    def test_rejects_non_integer_rank(self, tmp_path):
        doc = valid_doc()
        doc["records"][0]["rank"] = 0.5
        assert_rejected(tmp_path, doc, r"records\[0\]\.rank must be a 64-bit integer, got 0\.5")

    def test_rejects_non_string_call(self, tmp_path):
        doc = valid_doc()
        doc["records"][0]["call"] = 5
        assert_rejected(tmp_path, doc, r"records\[0\]\.call must be a string, got 5")


def assert_rejected(cache_dir, doc, match):
    """``doc`` fails validation with ``match``, naming its path, both on
    its own and as the legacy document of a key that ``load`` reads."""
    with pytest.raises(CacheValidationError, match=r"^f\.json: " + match):
        validate_document(doc, "f.json")
    cache = ReproCache(cache_dir)
    meta = doc["metadata"]
    path = cache.path_for(meta["app"], meta["nranks"]).with_suffix(".json")
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheValidationError, match=match) as exc:
        cache.load(meta["app"], meta["nranks"])
    assert exc.value.path == str(path)
    assert (cache.stats.hits, cache.stats.validation_failures) == (0, 1)


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_legacy_reader_matches_the_per_record_reference(repo_cache_dir, seed):
    """Each committed document's batch, as the legacy reader builds and
    times it, equals the reference path: record dicts to records,
    columnarized by ``from_records`` and timed one record at a time."""
    cache = ReproCache(repo_cache_dir, readonly=True)
    docs = sorted(repo_cache_dir.glob("*.json"))
    assert len(docs) == 16
    for path in docs:
        doc = json.loads(path.read_text())
        meta = doc["metadata"]
        trace = cache.load(meta["app"], meta["nranks"], meta["overrides"], timing_seed=seed)
        assert cache.stats.entries[-1]["path"] == str(path)
        records = [oracles.CommRecord.from_dict(d) for d in doc["records"]]
        timing = meta.get("timing")
        if seed is not None and (timing is None or timing["seed"] != seed):
            model = TimingModel(meta["app"], meta["nranks"], seed=seed)
            oracles.time_records(model, records)
            timing = model.to_dict()
        want, got = oracles.from_records(records), trace.batch
        for name in ("rank", "call_code", "size", "peer", "count",
                     "total_time", "min_time", "max_time"):
            a, b = getattr(want, name), getattr(got, name)
            assert (b.dtype, b.tobytes()) == (a.dtype, a.tobytes()), (path.name, name)
        assert (got.calls, got.region) == (want.calls, want.region), path.name
        assert trace.timing == timing, path.name


class TestReproCache:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = ReproCache(tmp_path)
        assert cache.load("cactus", 8) is None
        trace = synthesize("cactus", 8)
        path = cache.store(trace)
        assert path.exists()
        again = cache.load("cactus", 8)
        assert again is not None
        assert again.batch.call_totals == trace.batch.call_totals
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_load_rejects_corrupt_file(self, tmp_path):
        """A legacy ``.json`` document missing its keys fails validation."""
        cache = ReproCache(tmp_path)
        path = cache.path_for("cactus", 8).with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"format": 2}')
        with pytest.raises(CacheValidationError, match=str(path)):
            cache.load("cactus", 8)
        assert cache.stats.validation_failures == 1

    def test_load_rejects_invalid_json(self, tmp_path):
        """A legacy ``.json`` document that is not JSON fails validation."""
        cache = ReproCache(tmp_path)
        path = cache.path_for("gtc", 4).with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with pytest.raises(CacheValidationError, match="invalid JSON"):
            cache.load("gtc", 4)

    def test_readonly_cache_does_not_write(self, tmp_path):
        cache = ReproCache(tmp_path, readonly=True)
        cache.store(synthesize("gtc", 4))
        assert list(tmp_path.iterdir()) == []

    def test_seed_loads_as_trace(self, repo_cache_dir):
        cache = ReproCache(repo_cache_dir, readonly=True)
        trace = cache.load("cactus", 16)
        assert trace is not None
        assert trace.nranks == 16
        assert trace.batch.call_totals["MPI_Isend"] == 672

    def test_legacy_format2_load_retimes(self, repo_cache_dir):
        """Format-2 seed documents gain deterministic timing at load."""
        cache = ReproCache(repo_cache_dir, readonly=True)
        trace = cache.load("cactus", 16, timing_seed=0)
        assert trace.timing == {"model": "loggp", "seed": 0, "params": trace.timing["params"]}
        assert (trace.batch.total_time > 0).all()
        untimed = cache.load("cactus", 16, timing_seed=None)
        assert untimed.timing is None
        assert (untimed.batch.total_time == 0.0).all()

    def test_seed_mismatch_retimes_on_load(self, tmp_path):
        cache = ReproCache(tmp_path)
        cache.store(synthesize("gtc", 4, timing_seed=1))
        at1 = cache.load("gtc", 4, timing_seed=1)
        at2 = cache.load("gtc", 4, timing_seed=2)
        assert at1.timing["seed"] == 1 and at2.timing["seed"] == 2
        t1, t2 = at1.batch.total_time, at2.batch.total_time
        assert not np.array_equal(t1, t2)
        # same seed round-trips the stored values untouched
        again = cache.load("gtc", 4, timing_seed=1)
        assert np.array_equal(again.batch.total_time, t1)

    def test_concurrent_stores_of_one_cell_stay_readable(self, tmp_path):
        """Writers racing on one cell (different timing seeds, as two
        served jobs might) must leave a whole document after every store:
        each store writes through its own temp file."""
        traces = [synthesize("cactus", 64, timing_seed=seed) for seed in (1, 2)]
        cache = ReproCache(tmp_path)
        errors: list[Exception] = []

        def writer(trace):
            try:
                for _ in range(10):
                    ReproCache(tmp_path).store(trace)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        # More writers than cores, switching threads far more often than
        # the default 5 ms, so interleaved writes are all but certain.
        threads = [threading.Thread(target=writer, args=(t,)) for t in traces * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            while any(th.is_alive() for th in threads):
                if cache.path_for("cactus", 64).exists():
                    assert cache.load("cactus", 64, timing_seed=None) is not None
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        loaded = cache.load("cactus", 64, timing_seed=None)
        assert loaded.timing["seed"] in (1, 2)
        assert [p.name for p in tmp_path.iterdir()] == [cache.path_for("cactus", 64).name]

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("old", encoding="utf-8")

        def fail_midway(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, fail_midway)
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_stores_write_files_with_the_umask_mode(self, tmp_path):
        """A cache entry, a served result and a ledger record come out
        0644 under umask 022, as ``open()`` would make them."""
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from hfast.apps import synthesize\n"
            "from hfast.cache import ReproCache\n"
            "from hfast.serve.store import JobLedger, ResultStore\n"
            "root = Path(sys.argv[1])\n"
            "ReproCache(root / 'cache').store(synthesize('gtc', 4))\n"
            "ResultStore(root / 'results').put('a' * 64, {'x': 1})\n"
            "JobLedger(root / 'jobs').write({'job_id': 'j1', 'status': 'queued'})\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)}, umask=0o022, check=True,
        )
        modes = {
            p.relative_to(tmp_path).parts[0]: p.stat().st_mode & 0o777
            for p in tmp_path.rglob("*") if p.is_file()
        }
        assert modes == {"cache": 0o644, "results": 0o644, "jobs": 0o644}
