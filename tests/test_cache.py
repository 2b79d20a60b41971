import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hfast.apps import synthesize
from hfast.atomic import atomic_write
from hfast.cache import ReproCache, cache_key, cache_path


class TestKeying:
    def test_key_matches_seed_corpus(self):
        # The keys of the JSON seed documents the repo once committed:
        # they must never move.
        assert cache_key("cactus", 8, {}) == "d0f189f7c632"
        assert cache_key("cactus", 8, {"steps": 4}) == "31d27bb5ad70"
        assert cache_key("paratec", 16, {"fft_cycles": 1}) == "478e0f436f59"

    def test_path_layout(self, tmp_path):
        p = cache_path(tmp_path, "cactus", 8)
        assert p.name == "cactus_p8_d0f189f7c632.cols"

    def test_overrides_change_key(self):
        assert cache_key("gtc", 16, {}) != cache_key("gtc", 16, {"steps": 2})


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

    def test_readonly_cache_does_not_write(self, tmp_path):
        cache = ReproCache(tmp_path, readonly=True)
        cache.store(synthesize("gtc", 4))
        assert list(tmp_path.iterdir()) == []

    def test_untimed_entry_is_timed_at_load(self, tmp_path):
        cache = ReproCache(tmp_path)
        cache.store(synthesize("cactus", 16, timing_seed=None))
        trace = cache.load("cactus", 16, timing_seed=0)
        timed = synthesize("cactus", 16, timing_seed=0)
        assert trace.timing == timed.timing
        assert np.array_equal(trace.batch.total_time, timed.batch.total_time)
        untimed = cache.load("cactus", 16, timing_seed=None)
        assert untimed.timing is None and not untimed.batch.has_times

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
        served jobs might) must leave a whole entry after every store:
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
