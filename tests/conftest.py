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


@pytest.fixture
def repo_cache_dir() -> Path:
    return REPO_ROOT / ".repro_cache"


@pytest.fixture(autouse=True)
def reset_ambient_obs():
    """Keep the process-wide ambient observability disabled between tests."""
    from hfast.obs.profile import Observability, configure

    yield
    configure(Observability.disabled())
