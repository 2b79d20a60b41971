import hashlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def cache_digests(cache_dir: Path) -> dict[str, str]:
    """sha256 of every repro-cache entry under ``cache_dir``, by file name.

    Entries are listed the way the cache lists them, whatever their
    format, and an empty cache fails: two runs that stored nothing must
    not compare equal.
    """
    from hfast.cache import ReproCache

    entries = ReproCache(cache_dir, readonly=True).list_entries()
    assert entries, f"no repro-cache entries under {cache_dir}"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in entries}


@pytest.fixture(autouse=True)
def reset_ambient_obs():
    """Keep the process-wide ambient observability disabled between tests."""
    from hfast.obs.profile import Observability, configure

    yield
    configure(Observability.disabled())


class StoredEntry:
    """A timed cactus@8 trace stored as a repro-cache entry, with its
    header and columns decoded from the layout (``oracles.from_entry``).

    ``rewrite`` replaces the file with a changed copy and
    ``assert_rejected`` requires loading it to fail validation.
    """

    def __init__(self, cache_dir: Path):
        import oracles
        from hfast.apps import synthesize
        from hfast.cache import ReproCache

        self.cache = ReproCache(cache_dir)
        self.path = self.cache.store(synthesize("cactus", 8))
        self.header, self.columns = oracles.from_entry(self.path.read_bytes())

    def rewrite(self, header: dict | None = None, table: list | None = None, **changes) -> None:
        """Write the entry with ``changes`` applied to its columns (None
        drops one) and ``header`` for its header. The column table follows
        the columns unless ``table`` replaces it."""
        import oracles

        columns = dict(self.columns)
        for name, value in changes.items():
            if value is None:
                del columns[name]
            else:
                columns[name] = value
        if table is None:
            table = [[name, col.dtype.str, len(col)] for name, col in columns.items()]
        header = dict(self.header if header is None else header, columns=table)
        self.path.write_bytes(oracles.to_entry(header, columns.values()))

    def assert_rejected(self, match: str) -> None:
        from hfast.cache import CacheValidationError

        with pytest.raises(CacheValidationError, match=match) as info:
            self.cache.load("cactus", 8)
        assert info.value.path == str(self.path)
        assert str(info.value).startswith(f"{self.path}: ")
        assert self.cache.stats.validation_failures == 1
        assert self.cache.stats.hits == 0


@pytest.fixture
def entry(tmp_path) -> StoredEntry:
    return StoredEntry(tmp_path)
