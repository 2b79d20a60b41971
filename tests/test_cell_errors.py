"""Per-cell failure isolation.

A broken cell — here, a truncated repro-cache entry that fails
validation — must not abort the sweep. The failing (app, scale) cell is
recorded in the manifest with its error string, every other cell still
produces results, and the CLI exit code follows the policy: nonzero only
when *every* cell failed or ``--strict`` was passed.
"""

import pytest

from hfast.cli import main
from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline
from hfast.spec import ExecOptions

APPS = ["gtc"]
SCALES = {"gtc": [4, 8]}


@pytest.fixture
def warm_cache(tmp_path):
    """A cache dir holding valid gtc p4 and p8 entries."""
    run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(tmp_path),
                 obs=Observability.disabled(), argv=["test"])
    assert len(list(tmp_path.glob("gtc_p*.cols"))) == 2
    return tmp_path


def corrupt(cache_dir, pattern):
    """Truncate the matching ``.cols`` entries to half their length."""
    paths = list(cache_dir.glob(pattern))
    assert paths
    for path in paths:
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])


@pytest.mark.parametrize("workers", [1, 4])
def test_failed_cell_is_surfaced_not_fatal(warm_cache, workers):
    corrupt(warm_cache, "gtc_p4_*.cols")
    obs = Observability(enabled=True)
    out = run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(warm_cache),
                       obs=obs, argv=["test"],
                       options=ExecOptions(scheduler="stealing" if workers > 1 else "static",
                                           workers=workers))

    # The healthy cell still ran to completion.
    assert [r["nranks"] for r in out["results"]] == [8]
    man = out["manifest"]
    assert man["failed_cells"] == ["gtc_p4"]
    bad = [c for c in man["cells"] if not c["ok"]]
    assert len(bad) == 1
    assert bad[0]["app"] == "gtc" and bad[0]["nranks"] == 4
    assert "CacheValidationError" in bad[0]["error"]
    # The re-emitted manifest event carries the failure for report builders.
    manifests = [e for e in obs.events if e["event"] == "manifest"]
    assert manifests[-1]["failed_cells"] == ["gtc_p4"]


def test_partial_failure_exits_zero(warm_cache, capsys):
    corrupt(warm_cache, "gtc_p4_*.cols")
    rc = main(["analyze", "--cache-dir", str(warm_cache), "--no-store",
               "--apps", "gtc", "--scales", "4,8"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "error: cell gtc_p4 failed" in err
    assert "CacheValidationError" in err


def test_partial_failure_with_strict_exits_nonzero(warm_cache, capsys):
    corrupt(warm_cache, "gtc_p4_*.cols")
    rc = main(["analyze", "--cache-dir", str(warm_cache), "--no-store",
               "--apps", "gtc", "--scales", "4,8", "--strict"])
    assert rc == 1
    assert "error: cell gtc_p4 failed" in capsys.readouterr().err


def test_all_cells_failing_exits_nonzero(warm_cache, capsys):
    corrupt(warm_cache, "gtc_p*.cols")
    rc = main(["analyze", "--cache-dir", str(warm_cache), "--no-store",
               "--apps", "gtc", "--scales", "4,8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "gtc_p4" in err and "gtc_p8" in err
