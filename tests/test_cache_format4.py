"""Format-4 repro-cache entries: one ``.npz`` of trace columns per key.

Every check the vectorized validator makes has a rejection test here, and
each rejection must raise ``CacheValidationError`` naming the entry and
count a validation failure. The round-trip tests pin that a stored trace
loads back with the same columns, dtypes and metadata, that a warm run
equals the cold run byte for byte, that equal traces store as equal
bytes, and that the committed legacy JSON corpus still analyzes to the
results it gave when it was the cache's own format.
"""

import hashlib
import json
import random

import numpy as np
import pytest

import oracles
from hfast.apps import synthesize
from hfast.cache import CacheValidationError, ReproCache
from hfast.cli import main
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app, discover_scales, run_pipeline

INT_COLUMNS = ("rank", "call_code", "size", "peer", "count")
TIME_COLUMNS = ("total_time", "min_time", "max_time")
APPS = ("cactus", "gtc", "lbmhd", "paratec")


# -- rejection ------------------------------------------------------------------


class _Unpickled(Exception):
    pass


def _refuse():
    raise _Unpickled("the loader unpickled a member")


class Boom:
    """Unpickling an instance of this calls ``_refuse``."""

    def __reduce__(self):
        return (_refuse, ())


@pytest.fixture
def entry(tmp_path):
    """A stored, timed cactus@8 entry: (cache, path, members)."""
    cache = ReproCache(tmp_path)
    path = cache.store(synthesize("cactus", 8))
    with np.load(path, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    return cache, path, members


def meta_of(members):
    return json.loads(members["meta"].tobytes())


def encode(meta):
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def rewrite(path, members, allow_pickle=False, **changes):
    """Store ``members`` with ``changes`` applied (None drops a member)."""
    out = dict(members)
    for name, value in changes.items():
        if value is None:
            del out[name]
        else:
            out[name] = value
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=allow_pickle, **out)


def assert_rejected(cache, path, match):
    with pytest.raises(CacheValidationError, match=match) as info:
        cache.load("cactus", 8)
    assert info.value.path == str(path)
    assert str(info.value).startswith(f"{path}: ")
    assert cache.stats.validation_failures == 1
    assert cache.stats.hits == 0


def test_stored_entry_loads(entry):
    cache, path, members = entry
    assert set(members) == {"meta", *INT_COLUMNS, *TIME_COLUMNS}
    assert cache.load("cactus", 8) is not None
    assert cache.stats.validation_failures == 0


@pytest.mark.parametrize("name", ["meta", *INT_COLUMNS, *TIME_COLUMNS])
def test_rejects_missing_member(entry, name):
    cache, path, members = entry
    rewrite(path, members, **{name: None})
    assert_rejected(cache, path, rf"missing required member\(s\) \['{name}'\]")


def test_rejects_unexpected_member(entry):
    cache, path, members = entry
    rewrite(path, members, notes=np.zeros(3))
    assert_rejected(cache, path, r"unexpected member\(s\) \['notes'\]")


def test_rejects_partial_time_columns_on_untimed_entry(entry):
    """An untimed entry carries no time column; one alone is not allowed."""
    cache, path, members = entry
    meta = meta_of(members)
    meta["timing"] = None
    rewrite(path, members, meta=encode(meta), min_time=None, max_time=None)
    assert_rejected(cache, path, r"missing required member\(s\) \['max_time', 'min_time'\]")


def test_rejects_two_dimensional_column(entry):
    cache, path, members = entry
    rewrite(path, members, size=members["size"].reshape(-1, 1))
    assert_rejected(cache, path, "member 'size' must be a 1-D array")


def test_rejects_columns_of_unequal_length(entry):
    cache, path, members = entry
    n = len(members["rank"])
    rewrite(path, members, peer=members["peer"][:-1])
    assert_rejected(cache, path, f"peer has {n - 1} rows, rank has {n}")


@pytest.mark.parametrize("name", INT_COLUMNS)
@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
def test_rejects_non_integer_column(entry, name, dtype):
    cache, path, members = entry
    rewrite(path, members, **{name: members[name].astype(dtype)})
    assert_rejected(cache, path, f"{name} must have an integer dtype")


@pytest.mark.parametrize("name", TIME_COLUMNS)
def test_rejects_time_column_not_float64(entry, name):
    cache, path, members = entry
    rewrite(path, members, **{name: members[name].astype(np.float32)})
    assert_rejected(cache, path, f"{name} must be float64, got float32")


@pytest.mark.parametrize("name", [*INT_COLUMNS, *TIME_COLUMNS])
def test_rejects_negative_value(entry, name):
    cache, path, members = entry
    col = members[name].copy()
    col[3] = -1
    rewrite(path, members, **{name: col})
    assert_rejected(cache, path, rf"{name}\[3\] must be non-negative, got -1")


def test_rejects_nan_time(entry):
    cache, path, members = entry
    col = members["total_time"].copy()
    col[5] = np.nan
    rewrite(path, members, total_time=col)
    assert_rejected(cache, path, r"total_time\[5\] must be non-negative, got nan")


@pytest.mark.parametrize("name", ["rank", "peer"])
def test_rejects_rank_or_peer_out_of_range(entry, name):
    cache, path, members = entry
    col = members[name].copy()
    col[7] = 8
    rewrite(path, members, **{name: col})
    assert_rejected(cache, path, rf"{name}\[7\]=8 out of range for nranks=8")


def test_rejects_call_code_outside_the_calls_table(entry):
    cache, path, members = entry
    col = members["call_code"].copy()
    col[2] = 5
    rewrite(path, members, call_code=col)
    assert_rejected(cache, path, r"call_code\[2\]=5 out of range for a calls table of 5")


def test_rejects_unsorted_calls_table(entry):
    cache, path, members = entry
    meta = meta_of(members)
    meta["calls"] = list(reversed(meta["calls"]))
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, "meta.calls must be sorted and free of duplicates")


def test_rejects_duplicate_calls(entry):
    cache, path, members = entry
    meta = meta_of(members)
    meta["calls"] = sorted(meta["calls"] + [meta["calls"][0]])
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, "meta.calls must be sorted and free of duplicates")


def test_rejects_min_time_above_max_time(entry):
    cache, path, members = entry
    col = members["min_time"].copy()
    col[4] = members["max_time"][4] * 2
    rewrite(path, members, min_time=col)
    assert_rejected(cache, path, r"min_time\[4\]=.* exceeds max_time=")


@pytest.mark.parametrize("key", ["model", "seed"])
def test_rejects_timing_descriptor_without_model_or_seed(entry, key):
    cache, path, members = entry
    meta = meta_of(members)
    del meta["timing"][key]
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, f"meta.timing missing required key '{key}'")


def test_rejects_timing_descriptor_of_wrong_type(entry):
    cache, path, members = entry
    meta = meta_of(members)
    meta["timing"] = "loggp"
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, "meta.timing must be an object or null")


def test_rejects_inconsistent_call_totals(entry):
    cache, path, members = entry
    meta = meta_of(members)
    meta["call_totals"]["MPI_Isend"] += 1
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, "call_totals does not match the per-call sum of count")


@pytest.mark.parametrize("key", ["app", "call_totals", "calls", "format", "nranks",
                                 "overrides", "region", "timing"])
def test_rejects_meta_missing_key(entry, key):
    cache, path, members = entry
    meta = meta_of(members)
    del meta[key]
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, rf"meta missing required key\(s\) \['{key}'\]")


def test_rejects_other_format_version(entry):
    cache, path, members = entry
    meta = meta_of(members)
    meta["format"] = 3
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, "unsupported format version 3 \\(expected 4\\)")


@pytest.mark.parametrize("nranks", [0, -8, 8.0, True, "8"])
def test_rejects_bad_nranks(entry, nranks):
    cache, path, members = entry
    meta = meta_of(members)
    meta["nranks"] = nranks
    rewrite(path, members, meta=encode(meta))
    assert_rejected(cache, path, "meta.nranks must be a positive int")


@pytest.mark.parametrize(
    "meta,match",
    [
        (np.zeros(4, dtype=np.int8), "member 'meta' must be a 1-D uint8 array"),
        (np.frombuffer(b"{not json", dtype=np.uint8), "member 'meta' is not JSON"),
        (np.frombuffer(b"[1, 2]", dtype=np.uint8), "member 'meta' must hold a JSON object"),
    ],
    ids=["int8", "not-json", "not-object"],
)
def test_rejects_bad_meta_member(entry, meta, match):
    cache, path, members = entry
    rewrite(path, members, meta=meta)
    assert_rejected(cache, path, match)


def test_refuses_pickled_object_member_without_unpickling(entry):
    """An object array is stored pickled; loading refuses it and never
    runs the pickle (``Boom`` would raise if it did)."""
    cache, path, members = entry
    col = np.empty(len(members["rank"]), dtype=object)
    col[:] = [Boom() for _ in range(len(col))]
    rewrite(path, members, allow_pickle=True, rank=col)
    assert_rejected(cache, path, "unreadable .npz entry: Object arrays cannot be loaded")


def test_rejects_truncated_file(entry):
    cache, path, members = entry
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert_rejected(cache, path, "unreadable .npz entry")


@pytest.mark.parametrize("raw", [b"", b'{"format": 4}', b"PK\x03\x04garbage"],
                         ids=["empty", "json-text", "zip-magic"])
def test_rejects_non_zip_file(entry, raw):
    cache, path, members = entry
    path.write_bytes(raw)
    assert_rejected(cache, path, "unreadable .npz entry")


def test_rejects_bare_npy_array(entry):
    cache, path, members = entry
    with open(path, "wb") as fh:
        np.save(fh, members["rank"])
    assert_rejected(cache, path, "not an .npz archive")


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
    assert loaded._records is None  # built from columns, no record objects
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
    assert loaded.call_totals == trace.call_totals


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
                  bench_dir=None)
    cold = run_pipeline(**kwargs)
    warm = run_pipeline(**kwargs)
    assert cold["manifest"]["cache"]["stores"] == 8
    assert warm["manifest"]["cache"]["hits"] == 8
    assert warm["manifest"]["cache"]["stores"] == 0
    assert json.dumps(warm["results"], sort_keys=True) == json.dumps(
        cold["results"], sort_keys=True
    )


# -- the committed legacy corpus -------------------------------------------------

#: sha256 prefixes of ``json.dumps(analyze_app(...), sort_keys=True)`` for
#: each committed ``.repro_cache`` document at the default timing seed, as
#: computed when JSON documents were the cache's own format.
SEED_CORPUS_RESULTS = {
    "cactus_p16_7d5ab4f26265.json": "f816bf8ff857528e",
    "cactus_p256_a184ee0dc472.json": "739e10aa44f6b55b",
    "cactus_p27_3715856a53c9.json": "9caf1b3e74b7f83f",
    "cactus_p64_9b0ada4e5a8f.json": "02840cf03099e046",
    "cactus_p8_31d27bb5ad70.json": "2c95452e02634ad4",
    "cactus_p8_d0f189f7c632.json": "89e796c887adb5a2",
    "gtc_p16_a9cdbe7c1e1c.json": "5ee63e2c68b1bbde",
    "gtc_p256_c8a05290606c.json": "7c7dbd65b3c59350",
    "gtc_p32_b4b0822fb69a.json": "bd5bdfb660032d49",
    "gtc_p64_0ea75351582a.json": "6b43fff9bb72fc50",
    "lbmhd_p256_ef4833b321de.json": "634444ffe2b48fa8",
    "lbmhd_p25_35cdc6e420b6.json": "bd6f76441d53b7db",
    "lbmhd_p25_de893b9a83c6.json": "71168b2d67d97790",
    "lbmhd_p64_0fdcbbb07d1b.json": "0b6010342fb57ab5",
    "paratec_p16_478e0f436f59.json": "adfce1922265dce9",
    "paratec_p16_4c6001b81ee7.json": "202f3c41cbbafaaa",
}


def result_digest(result):
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def test_seed_corpus_analyzes_as_before_and_through_format4(repo_cache_dir, tmp_path):
    """Each committed document loads through the legacy reader and gives
    its recorded results; stored as a format-4 entry and loaded back, it
    gives them again."""
    docs = sorted(repo_cache_dir.glob("*.json"))
    assert [p.name for p in docs] == sorted(SEED_CORPUS_RESULTS)
    legacy = ReproCache(repo_cache_dir, readonly=True)
    converted = ReproCache(tmp_path)
    for path in docs:
        meta = json.loads(path.read_text())["metadata"]
        cell = (meta["app"], meta["nranks"])
        trace = legacy.load(*cell, meta["overrides"])
        assert legacy.stats.entries[-1]["path"] == str(path)
        assert converted.store(trace).name == path.with_suffix(".npz").name
        for cache in (legacy, converted):
            result = analyze_app(*cell, cache, Observability.disabled(),
                                 overrides=meta["overrides"], store=False)
            assert result_digest(result) == SEED_CORPUS_RESULTS[path.name], path.name
    assert legacy.stats.validation_failures == converted.stats.validation_failures == 0


# -- listing ---------------------------------------------------------------------


def test_format4_only_cache_lists_its_scales(tmp_path, capsys):
    run_pipeline(apps=["cactus", "gtc"], scales={"cactus": [8, 12], "gtc": [4]},
                 cache_dir=str(tmp_path), obs=Observability.disabled(), argv=["test"],
                 bench_dir=None)
    entries = ReproCache(tmp_path).list_entries()
    assert [p.suffix for p in entries] == [".npz"] * 3
    scales = discover_scales(ReproCache(tmp_path), ["cactus", "gtc"])
    assert scales == {"cactus": [8, 12], "gtc": [4]}
    assert main(["apps", "--cache-dir", str(tmp_path)]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert listing["cactus"]["cached_scales"] == [8, 12]
    assert listing["gtc"]["cached_scales"] == [4]


def test_mixed_cache_lists_a_cell_once_and_loads_its_npz(tmp_path, capsys):
    """A cell with both a legacy ``.json`` and a ``.npz`` entry is one
    entry and one scale, and ``load`` reads the ``.npz``."""
    cache = ReproCache(tmp_path)
    npz = cache.store(synthesize("gtc", 8, timing_seed=1))
    npz.with_suffix(".json").write_text(json.dumps(oracles.to_document(
        synthesize("gtc", 8, timing_seed=5))))
    legacy_only = cache.path_for("gtc", 16).with_suffix(".json")
    legacy_only.write_text(json.dumps(oracles.to_document(synthesize("gtc", 16))))

    assert cache.list_entries() == sorted([npz, legacy_only])
    assert discover_scales(cache, ["gtc"]) == {"gtc": [8, 16]}
    assert main(["apps", "--cache-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["gtc"]["cached_scales"] == [8, 16]

    trace = cache.load("gtc", 8, timing_seed=None)
    assert cache.stats.entries[-1]["path"] == str(npz)
    assert trace.timing["seed"] == 1
    trace = cache.load("gtc", 16, timing_seed=None)
    assert cache.stats.entries[-1]["path"] == str(legacy_only)
    assert trace.timing["seed"] == 0
