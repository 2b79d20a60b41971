"""Repro-cache entry checks that format 4 introduced, run against format 5.

Format 5 replaced format 4's ``.npz`` with one column file per key and
kept every check its validator made. Each keeps its rejection test here,
under its format-4 name ("member" now means a column or the header's
metadata), and each rejection must raise ``CacheValidationError`` naming
the entry and count a validation failure. The round-trip tests pin that
a stored trace loads back with the same columns, dtypes and metadata,
that a warm run equals the cold run byte for byte, and that equal traces
store as equal bytes. The checks of the format-5 layout itself, and the
fate of stale format-4 entries, are in ``test_cache_format5.py``.
"""

import json
import random
import re

import numpy as np
import pytest

import oracles
from hfast.apps import synthesize
from hfast.cache import CacheValidationError, ReproCache
from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline
from hfast.spec import ExecOptions

INT_COLUMNS = ("rank", "call_code", "size", "peer", "count")
TIME_COLUMNS = ("total_time", "min_time", "max_time")
META_KEYS = ("app", "call_totals", "calls", "format", "nranks", "overrides", "region", "timing")
APPS = ("cactus", "gtc", "lbmhd", "paratec")


# -- rejection ------------------------------------------------------------------


def test_stored_entry_loads(entry):
    assert list(entry.columns) == [*INT_COLUMNS, *TIME_COLUMNS]
    assert sorted(entry.header) == sorted([*META_KEYS, "columns"])
    assert entry.cache.load("cactus", 8) is not None
    assert entry.cache.stats.validation_failures == 0


@pytest.mark.parametrize("name", ["meta", *INT_COLUMNS, *TIME_COLUMNS])
def test_rejects_missing_member(entry, name):
    """A missing column, or a header with its column table and none of
    the metadata."""
    if name == "meta":
        entry.rewrite(header={})
        entry.assert_rejected(re.escape(f"header missing required key(s) {list(META_KEYS)}"))
    else:
        entry.rewrite(**{name: None})
        entry.assert_rejected(rf"missing required column\(s\) \['{name}'\]")


def test_rejects_unexpected_member(entry):
    entry.rewrite(notes=np.zeros(72))
    entry.assert_rejected(r"unexpected column\(s\) \['notes'\]")


def test_rejects_partial_time_columns_on_untimed_entry(entry):
    """An untimed entry carries no time column; one alone is not allowed."""
    entry.rewrite(header=dict(entry.header, timing=None), min_time=None, max_time=None)
    entry.assert_rejected(r"missing required column\(s\) \['max_time', 'min_time'\]")


def test_rejects_two_dimensional_column(entry):
    """A column-table entry can give only a length; a shape is refused."""
    table = [[name, col.dtype.str, len(col)] for name, col in entry.columns.items()]
    table[2][2] = [72, 1]
    entry.rewrite(table=table)
    entry.assert_rejected(r"size length must be a non-negative int, got \[72, 1\]")


def test_rejects_columns_of_unequal_length(entry):
    n = len(entry.columns["rank"])
    entry.rewrite(peer=entry.columns["peer"][:-1])
    entry.assert_rejected(f"peer has {n - 1} rows, rank has {n}")


@pytest.mark.parametrize("name", INT_COLUMNS)
@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
def test_rejects_non_integer_column(entry, name, dtype):
    entry.rewrite(**{name: entry.columns[name].astype(dtype)})
    entry.assert_rejected(f"{name} must have an integer dtype")


@pytest.mark.parametrize("name", TIME_COLUMNS)
def test_rejects_time_column_not_float64(entry, name):
    entry.rewrite(**{name: entry.columns[name].astype(np.float32)})
    entry.assert_rejected(f"{name} must be float64 \\('<f8'\\), got '<f4'")


@pytest.mark.parametrize("name", [*INT_COLUMNS, *TIME_COLUMNS])
def test_rejects_negative_value(entry, name):
    col = entry.columns[name].copy()
    col[3] = -1
    entry.rewrite(**{name: col})
    entry.assert_rejected(rf"{name}\[3\] must be non-negative, got -1")


def test_rejects_nan_time(entry):
    col = entry.columns["total_time"].copy()
    col[5] = np.nan
    entry.rewrite(total_time=col)
    entry.assert_rejected(r"total_time\[5\] must be non-negative, got nan")


@pytest.mark.parametrize("name", ["rank", "peer"])
def test_rejects_rank_or_peer_out_of_range(entry, name):
    col = entry.columns[name].copy()
    col[7] = 8
    entry.rewrite(**{name: col})
    entry.assert_rejected(rf"{name}\[7\]=8 out of range for nranks=8")


def test_rejects_call_code_outside_the_calls_table(entry):
    col = entry.columns["call_code"].copy()
    col[2] = 5
    entry.rewrite(call_code=col)
    entry.assert_rejected(r"call_code\[2\]=5 out of range for a calls table of 5")


def test_rejects_unsorted_calls_table(entry):
    entry.rewrite(header=dict(entry.header, calls=list(reversed(entry.header["calls"]))))
    entry.assert_rejected("header.calls must be sorted and free of duplicates")


def test_rejects_duplicate_calls(entry):
    calls = entry.header["calls"]
    entry.rewrite(header=dict(entry.header, calls=sorted(calls + [calls[0]])))
    entry.assert_rejected("header.calls must be sorted and free of duplicates")


def test_rejects_min_time_above_max_time(entry):
    col = entry.columns["min_time"].copy()
    col[4] = entry.columns["max_time"][4] * 2
    entry.rewrite(min_time=col)
    entry.assert_rejected(r"min_time\[4\]=.* exceeds max_time=")


@pytest.mark.parametrize("key", ["model", "seed"])
def test_rejects_timing_descriptor_without_model_or_seed(entry, key):
    timing = dict(entry.header["timing"])
    del timing[key]
    entry.rewrite(header=dict(entry.header, timing=timing))
    entry.assert_rejected(f"header.timing missing required key '{key}'")


def test_rejects_timing_descriptor_of_wrong_type(entry):
    entry.rewrite(header=dict(entry.header, timing="loggp"))
    entry.assert_rejected("header.timing must be an object or null")


def test_rejects_inconsistent_call_totals(entry):
    totals = dict(entry.header["call_totals"])
    totals["MPI_Isend"] += 1
    entry.rewrite(header=dict(entry.header, call_totals=totals))
    entry.assert_rejected("call_totals does not match the per-call sum of count")


@pytest.mark.parametrize("key", [*META_KEYS, "columns"])
def test_rejects_meta_missing_key(entry, key):
    header = {k: v for k, v in entry.header.items() if k != key}
    entry.path.write_bytes(oracles.to_entry(header, entry.columns.values()))
    entry.assert_rejected(rf"header missing required key\(s\) \['{key}'\]")


def test_rejects_non_integer_format(entry):
    """A header whose format names no format version. One that names
    another version is a miss (``test_cache_format5.py``)."""
    entry.rewrite(header=dict(entry.header, format="5"))
    entry.assert_rejected("unsupported format version '5' \\(expected 5\\)")


@pytest.mark.parametrize("nranks", [0, -8, 8.0, True, "8"])
def test_rejects_bad_nranks(entry, nranks):
    entry.rewrite(header=dict(entry.header, nranks=nranks))
    entry.assert_rejected("header.nranks must be a positive int")


@pytest.mark.parametrize(
    "head,match",
    [
        (b"{not json", "header is not JSON"),
        (b"[1, 2]", "header must be a JSON object"),
    ],
    ids=["not-json", "not-object"],
)
def test_rejects_bad_meta_member(entry, head, match):
    """The metadata lives in the header, which must be a JSON object."""
    raw = entry.path.read_bytes()
    end = 8 + int.from_bytes(raw[:8], "little")
    entry.path.write_bytes(len(head).to_bytes(8, "little") + head + raw[end:])
    entry.assert_rejected(match)


def test_rejects_truncated_file(entry):
    raw = entry.path.read_bytes()
    entry.path.write_bytes(raw[: len(raw) // 2])
    entry.assert_rejected("truncated")


def test_store_refuses_a_trace_its_load_would_refuse(tmp_path):
    trace = synthesize("gtc", 8)
    trace.batch.peer[0] = 8
    cache = ReproCache(tmp_path)
    with pytest.raises(CacheValidationError, match=r"peer\[0\]=8 out of range"):
        cache.store(trace)
    assert list(tmp_path.iterdir()) == []


# -- round trip ------------------------------------------------------------------

GOLDEN_CELLS = [(app, n) for app in APPS for n in (8, 16)]
#: The cells of the end-to-end benchmark: its ladder's eight and the
#: paratec@64 of its all-to-all workload.
BENCHMARK_CELLS = [
    *((app, n) for app in ("cactus", "gtc", "lbmhd") for n in (128, 512)),
    ("paratec", 32),
    ("paratec", 48),
    ("paratec", 64),
]
OVERRIDE_CASES = [
    ("cactus", 8, {"steps": 4}),
    ("gtc", 16, {"steps": 2, "particle_bytes": 4096}),
    ("lbmhd", 25, {"steps": 4}),
    ("paratec", 16, {"fft_cycles": 1}),
]
OVERRIDE_KNOBS = {
    "cactus": ("steps", "ghost_bytes"),
    "gtc": ("steps", "particle_bytes"),
    "lbmhd": ("steps", "lattice_bytes"),
    "paratec": ("fft_cycles", "grid_bytes"),
}


def random_cases(seed=17, n=12):
    """(app, nranks, overrides, timing_seed) drawn from a seeded generator."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        app = rng.choice(APPS)
        steps_key, bytes_key = OVERRIDE_KNOBS[app]
        overrides = {}
        if rng.random() < 0.5:
            overrides[steps_key] = rng.randint(1, 12)
        if rng.random() < 0.3:
            overrides[bytes_key] = rng.choice([64, 4096, 65536])
        nranks = rng.choice([1, 2, 3, 5, 12, 24, 27, 48, 64, 100])
        cases.append((app, nranks, overrides, rng.choice([None, 0, 1, 3, 42])))
    return cases


def assert_round_trip(cache_dir, trace):
    cache = ReproCache(cache_dir)
    cache.store(trace)
    seed = trace.timing["seed"] if trace.timing else None
    loaded = cache.load(trace.app, trace.nranks, trace.overrides, timing_seed=seed)
    want, got = trace.batch, loaded.batch
    assert got.has_times == want.has_times == (seed is not None)
    for name in INT_COLUMNS + (TIME_COLUMNS if want.has_times else ()):
        a, b = getattr(want, name), getattr(got, name)
        assert b.dtype == a.dtype, name
        assert np.array_equal(b, a), name
    assert got.calls == want.calls
    assert got.region == want.region
    assert (loaded.app, loaded.nranks) == (trace.app, trace.nranks)
    assert loaded.overrides == trace.overrides
    assert loaded.timing == trace.timing
    assert loaded.batch.call_totals == trace.batch.call_totals


@pytest.mark.parametrize("app,nranks", GOLDEN_CELLS + BENCHMARK_CELLS)
def test_cells_round_trip(tmp_path, app, nranks):
    assert_round_trip(tmp_path, synthesize(app, nranks))


@pytest.mark.parametrize("app", APPS)
def test_untimed_traces_round_trip(tmp_path, app):
    assert_round_trip(tmp_path, synthesize(app, 16, timing_seed=None))


@pytest.mark.parametrize("app,nranks,overrides", OVERRIDE_CASES)
def test_cells_with_overrides_round_trip(tmp_path, app, nranks, overrides):
    assert_round_trip(tmp_path, synthesize(app, nranks, overrides))


def test_seeded_random_cells_round_trip(tmp_path):
    for i, (app, nranks, overrides, seed) in enumerate(random_cases()):
        assert_round_trip(tmp_path / str(i), synthesize(app, nranks, overrides, timing_seed=seed))


@pytest.mark.parametrize("app,nranks", GOLDEN_CELLS)
def test_equal_traces_store_equal_bytes(tmp_path, app, nranks):
    """Two stores of one trace, and a store of the same cell synthesized
    again, give byte-identical files."""
    trace = synthesize(app, nranks)
    first = ReproCache(tmp_path / "a").store(trace).read_bytes()
    again = ReproCache(tmp_path / "a").store(trace).read_bytes()
    fresh = ReproCache(tmp_path / "b").store(synthesize(app, nranks)).read_bytes()
    assert first == again == fresh


@pytest.mark.parametrize("timing_seed", [0, 3])
def test_warm_run_equals_cold_run(tmp_path, timing_seed):
    scales = {app: [8, 16] for app in APPS}
    kwargs = dict(apps=list(APPS), scales=scales, cache_dir=str(tmp_path),
                  obs=Observability.disabled(), argv=["test"], timing_seed=timing_seed,
                  options=ExecOptions(bench_dir=None))
    cold = run_pipeline(**kwargs)
    warm = run_pipeline(**kwargs)
    assert cold["manifest"]["cache"]["stores"] == 8
    assert warm["manifest"]["cache"]["hits"] == 8
    assert warm["manifest"]["cache"]["stores"] == 0
    assert json.dumps(warm["results"], sort_keys=True) == json.dumps(
        cold["results"], sort_keys=True
    )
