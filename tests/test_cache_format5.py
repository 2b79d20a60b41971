"""Format-5 repro-cache entries: the layout, the work, and stale entries.

A format-5 entry is one file per key: an 8-byte little-endian header
length, a canonical JSON header (the metadata and a ``[name, dtype,
length]`` column table), then the columns at 8-byte-aligned offsets with
zero padding. Every layout check, and the finite-time check format 5
added, has a rejection test here; the tests that took the place of
format 4's non-zip, bare-``.npy`` and pickled-object tests say so. The
checks format 5 kept from format 4 are in ``test_cache_format4.py``.

The other tests pin an entry's bytes (decoded from the documented layout
alone), the work (one open and one read a load, one ``atomic_write`` a
store), a warm entry re-timed at another seed or from other timing
parameters, listing, and what becomes of an older format's file (a
format-4 ``.npz``, a format-2/3 JSON document) left under an entry's
name: hfast neither reads nor lists it. A ``.cols`` entry of another
format is a miss that a store-on run replaces.
"""

import builtins
import dataclasses
import json
import re

import numpy as np
import pytest

import hfast.cache
import oracles
from hfast.apps import synthesize
from hfast.cache import CACHE_FORMAT, ReproCache
from hfast.cli import main
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app, discover_scales, run_pipeline
from hfast.spec import ExecOptions
from hfast.timing import APP_PARAMS, apply_timing

INT_COLUMNS = ("rank", "call_code", "size", "peer", "count")
TIME_COLUMNS = ("total_time", "min_time", "max_time")
HEADER_KEYS = ["app", "call_totals", "calls", "columns", "format", "nranks", "overrides",
               "region", "timing"]
APPS = ("cactus", "gtc", "lbmhd", "paratec")


def table_of(columns):
    return [[name, col.dtype.str, len(col)] for name, col in columns.items()]


def gaps(raw):
    """(column, start, end) of each run of padding before a column."""
    pos = 8 + int.from_bytes(raw[:8], "little")
    out = []
    for name, dtype, length in json.loads(raw[8:pos])["columns"]:
        start = -(-pos // 8) * 8
        if start > pos:
            out.append((name, pos, start))
        pos = start + length * np.dtype(dtype).itemsize
    return out


# -- layout rejection ----------------------------------------------------------


@pytest.mark.parametrize(
    "raw,match",
    [
        (b"", "truncated: 0 bytes, no header length"),
        (b'{"format": 4}', "runs past the end of the 13-byte file"),
        (b"PK\x03\x04garbage", "runs past the end of the 11-byte file"),
    ],
    ids=["empty", "json-text", "zip-magic"],
)
def test_rejects_file_that_is_not_an_entry(entry, raw, match):
    """Takes the place of format 4's non-zip test."""
    entry.path.write_bytes(raw)
    entry.assert_rejected(match)


def test_rejects_npz_written_under_the_entry_name(entry):
    """Takes the place of format 4's bare-``.npy`` test: a zip of
    ``.npy`` members where the entry belongs is refused by its first
    eight bytes."""
    with open(entry.path, "wb") as fh:
        np.savez(fh, **entry.columns)
    entry.assert_rejected(r"header length \d+ runs past the end")


@pytest.mark.parametrize("extra", [1, 1 << 40])
def test_rejects_header_length_past_eof(entry, extra):
    raw = entry.path.read_bytes()
    length = len(raw) - 8 + extra
    entry.path.write_bytes(length.to_bytes(8, "little") + raw[8:])
    entry.assert_rejected(f"header length {length} runs past the end of the {len(raw)}-byte file")


MALFORMED_TABLES = {
    "not-a-list": lambda t: {row[0]: row[1:] for row in t},
    "entry-object": lambda t: [t[0], {"name": "call_code"}, *t[2:]],
    "two-items": lambda t: [t[0], t[1][:2], *t[2:]],
    "four-items": lambda t: [t[0], [*t[1], 0], *t[2:]],
    "name-not-str": lambda t: [t[0], [1, *t[1][1:]], *t[2:]],
    "dtype-not-str": lambda t: [t[0], [t[1][0], 2, t[1][2]], *t[2:]],
}


@pytest.mark.parametrize("kind", MALFORMED_TABLES)
def test_rejects_malformed_column_table(entry, kind):
    entry.rewrite(table=MALFORMED_TABLES[kind](table_of(entry.columns)))
    if kind == "not-a-list":
        entry.assert_rejected("header.columns must be a list")
    else:
        entry.assert_rejected(r"header.columns\[1\] must be a \[name, dtype, length\] entry")


@pytest.mark.parametrize(
    "table,match",
    [
        (lambda t: [t[0], t[1], t[3], t[2], *t[4:]], "in the order"),
        (lambda t: [*t, t[0]], "in the order"),
    ],
    ids=["swapped", "repeated"],
)
def test_rejects_columns_out_of_order_or_repeated(entry, table, match):
    entry.rewrite(table=table(table_of(entry.columns)))
    entry.assert_rejected(f"columns must be stored once each, {match}")


@pytest.mark.parametrize(
    "name,dtype,match",
    [
        ("rank", "|O", "rank must have an integer dtype"),
        ("count", ">i8", "count must have an integer dtype"),
        ("total_time", "<f4", r"total_time must be float64 \('<f8'\), got '<f4'"),
    ],
    ids=["object", "big-endian", "float32-time"],
)
def test_rejects_dtype_outside_the_allowlist_unread(entry, monkeypatch, name, dtype, match):
    """Takes the place of format 4's pickled-object test: a column whose
    table names a dtype outside the allowlist is refused before any byte
    is read as that dtype (or as any column)."""
    table = table_of(entry.columns)
    table[list(entry.columns).index(name)][1] = dtype
    entry.rewrite(table=table)
    read_as = []
    frombuffer = np.frombuffer
    monkeypatch.setattr(
        hfast.cache.np, "frombuffer", lambda *a, **k: read_as.append(k) or frombuffer(*a, **k)
    )
    entry.assert_rejected(match)
    assert read_as == []


@pytest.mark.parametrize("length", [-1, 72.0, True, "72", None],
                         ids=["negative", "float", "bool", "string", "null"])
def test_rejects_bad_column_length(entry, length):
    table = table_of(entry.columns)
    table[0][2] = length
    entry.rewrite(table=table)
    entry.assert_rejected(re.escape(f"rank length must be a non-negative int, got {length!r}"))


def test_rejects_truncated_column(entry):
    raw = entry.path.read_bytes()
    entry.path.write_bytes(raw[:-1])
    entry.assert_rejected(f"truncated: {len(raw) - 1} bytes, the columns end at {len(raw)}")


@pytest.mark.parametrize("tail", [b"\0", bytes(8)], ids=["one", "eight"])
def test_rejects_trailing_bytes(entry, tail):
    entry.path.write_bytes(entry.path.read_bytes() + tail)
    entry.assert_rejected(rf"{len(tail)} trailing byte\(s\) after the last column")


@pytest.mark.parametrize("column", ["rank", "size"])
def test_rejects_nonzero_padding(entry, column):
    """After the header, and between two columns: 71 int16 call codes
    end 2 bytes short of a boundary."""
    entry.rewrite(**{name: col[:71] for name, col in entry.columns.items()})
    raw = bytearray(entry.path.read_bytes())
    (start,) = [start for name, start, _ in gaps(raw) if name == column]
    raw[start] = 1
    entry.path.write_bytes(bytes(raw))
    entry.assert_rejected(f"non-zero padding before column {column}")


def test_store_refuses_a_call_code_outside_the_calls_table(tmp_path):
    """The codes are checked before ``call_totals`` sums by them."""
    trace = synthesize("gtc", 8)
    trace.batch.call_code[0] = len(trace.batch.calls)
    with pytest.raises(hfast.cache.CacheValidationError, match=r"call_code\[0\]=4 out of range"):
        ReproCache(tmp_path).store(trace)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", TIME_COLUMNS)
def test_rejects_infinite_time(entry, name):
    """An infinite time names its column. An infinite ``min_time`` comes
    with an infinite ``max_time``, so the row still reads as ordered."""
    changes = {}
    for infinite in ("min_time", "max_time") if name == "min_time" else (name,):
        col = entry.columns[infinite].copy()
        col[6] = np.inf
        changes[infinite] = col
    entry.rewrite(**changes)
    entry.assert_rejected(rf"{name}\[6\] must be finite, got inf")


def test_store_refuses_an_infinite_time(tmp_path):
    trace = synthesize("cactus", 8)
    batch = trace.batch
    total, tmax = batch.total_time.copy(), batch.max_time.copy()
    total[0] = tmax[0] = np.inf
    batch.set_times(total, batch.min_time, tmax)
    cache = ReproCache(tmp_path)
    with pytest.raises(hfast.cache.CacheValidationError, match=r"total_time\[0\] must be finite"):
        cache.store(trace)
    assert list(tmp_path.iterdir()) == [] and cache.stats.stores == 0


# -- the bytes and the work -----------------------------------------------------


@pytest.mark.parametrize("app,nranks,seed", [("cactus", 8, 0), ("gtc", 16, 3),
                                             ("lbmhd", 25, None), ("paratec", 12, 0)])
def test_entry_decodes_from_the_documented_layout(tmp_path, app, nranks, seed):
    """Read a stored entry with the layout alone, not hfast's reader."""
    trace = synthesize(app, nranks, timing_seed=seed)
    raw = ReproCache(tmp_path).store(trace).read_bytes()
    length = int.from_bytes(raw[:8], "little")
    head = raw[8:8 + length]
    header = json.loads(head)
    assert head == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert sorted(header) == HEADER_KEYS
    assert header["format"] == CACHE_FORMAT == 5
    assert (header["app"], header["nranks"], header["overrides"]) == (app, nranks, {})
    assert header["timing"] == trace.timing
    assert header["calls"] == list(trace.batch.calls)
    assert header["call_totals"] == trace.batch.call_totals
    names = INT_COLUMNS + (TIME_COLUMNS if seed is not None else ())
    assert [name for name, _, _ in header["columns"]] == list(names)
    pos = 8 + length
    for name, dtype, n in header["columns"]:
        assert dtype in ("|i1", "<i2", "<i4", "<i8") if name in INT_COLUMNS else dtype == "<f8"
        start = -(-pos // 8) * 8
        assert raw[pos:start] == bytes(start - pos)
        col = np.frombuffer(raw, dtype=dtype, count=n, offset=start)
        want = getattr(trace.batch, name)
        assert col.dtype == want.dtype and np.array_equal(col, want), name
        pos = start + col.nbytes
    assert pos == len(raw)


class CountingFile:
    """A file that counts its ``read`` calls and offers nothing else."""

    def __init__(self, fh, reads):
        self.fh, self.reads = fh, reads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self, *args):
        self.reads.append(args)
        return self.fh.read(*args)


def test_load_opens_and_reads_once_and_store_writes_once(tmp_path, monkeypatch):
    cache = ReproCache(tmp_path)
    writes = []
    atomic_write = hfast.cache.atomic_write
    monkeypatch.setattr(hfast.cache, "atomic_write",
                        lambda path, write: writes.append(path) or atomic_write(path, write))
    path = cache.store(synthesize("gtc", 128))
    assert writes == [path]

    opens, reads = [], []

    def counting_open(file, *args, **kwargs):
        opens.append(file)
        return CountingFile(builtins.open(file, *args, **kwargs), reads)

    monkeypatch.setattr(hfast.cache, "open", counting_open, raising=False)
    trace = cache.load("gtc", 128)
    assert opens == [path]
    assert reads == [()]
    assert cache.stats.hits == 1 and len(trace.batch) == 512


def test_warm_entry_retimed_at_another_seed_analyzes_as_cold(tmp_path):
    """Loaded columns are read-only views of the bytes read. Re-timing a
    warm entry replaces its time columns rather than writing into them,
    and the cell analyzes as a cold run at the new seed does."""
    warm = ReproCache(tmp_path / "warm")
    warm.store(synthesize("lbmhd", 64, timing_seed=0))
    batch = warm.load("lbmhd", 64, timing_seed=None).batch
    assert not any(getattr(batch, name).flags.writeable for name in INT_COLUMNS + TIME_COLUMNS)
    results = [
        analyze_app("lbmhd", 64, cache, Observability(enabled=True), store=False, timing_seed=3)
        for cache in (warm, ReproCache(tmp_path / "cold"))
    ]
    assert warm.stats.hits == 2
    assert json.dumps(results[0], sort_keys=True) == json.dumps(results[1], sort_keys=True)


def test_warm_entry_timed_with_other_params_analyzes_as_cold(tmp_path):
    """An entry timed at the requested seed but with other wire
    parameters (a per-byte gap of 5 ns) carries a stale timing
    descriptor; the load re-times it, so the warm cell equals a cold one."""
    trace = synthesize("gtc", 8)
    apply_timing(trace, seed=0, params=dataclasses.replace(APP_PARAMS["gtc"], G=5e-9))
    warm = ReproCache(tmp_path / "warm")
    warm.store(trace)
    kwargs = dict(apps=["gtc"], scales={"gtc": [8]}, obs=Observability.disabled(),
                  store=False, argv=["test"], options=ExecOptions(bench_dir=None))
    out = run_pipeline(cache_dir=str(warm.cache_dir), **kwargs)
    assert out["manifest"]["cache"]["hits"] == 1
    cold = run_pipeline(cache_dir=str(tmp_path / "cold"), **kwargs)
    assert json.dumps(out["results"], sort_keys=True) == json.dumps(cold["results"], sort_keys=True)


# -- listing and stale entries ---------------------------------------------------


def cached_scales(cache_dir, capsys):
    assert main(["apps", "--cache-dir", str(cache_dir)]) == 0
    return {app: v["cached_scales"] for app, v in json.loads(capsys.readouterr().out).items()}


def test_format5_only_cache_lists_its_scales(tmp_path, capsys):
    run_pipeline(apps=["cactus", "gtc"], scales={"cactus": [8, 12], "gtc": [4]},
                 cache_dir=str(tmp_path), obs=Observability.disabled(), argv=["test"],
                 options=ExecOptions(bench_dir=None))
    entries = ReproCache(tmp_path).list_entries()
    assert [p.suffix for p in entries] == [".cols"] * 3
    scales = discover_scales(ReproCache(tmp_path), ["cactus", "gtc"])
    assert scales == {"cactus": [8, 12], "gtc": [4]}
    listing = cached_scales(tmp_path, capsys)
    assert (listing["cactus"], listing["gtc"]) == ([8, 12], [4])


def write_format4_entry(path, trace):
    """The ``.npz`` an older hfast stored: the batch's columns and a
    ``uint8`` member, ``meta``, of canonical JSON metadata."""
    batch = trace.batch
    meta = {"format": 4, "app": trace.app, "nranks": trace.nranks,
            "overrides": trace.overrides, "timing": trace.timing, "region": batch.region,
            "calls": list(batch.calls), "call_totals": batch.call_totals}
    members = {name: getattr(batch, name) for name in INT_COLUMNS + TIME_COLUMNS}
    raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    members["meta"] = np.frombuffer(raw, dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **members)


def assert_stale_file_is_a_miss(tmp_path, capsys, suffix, write):
    """``write`` puts an older format's file where gtc@8's entry belongs,
    under ``suffix``. It is neither read nor listed: the key misses, the
    run stores the synthesized trace beside it, and its results are a
    cold run's."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    cache = ReproCache(cache_dir)
    stale = cache.path_for("gtc", 8).with_suffix(suffix)
    write(stale)
    raw = stale.read_bytes()

    assert cache.list_entries() == []
    assert discover_scales(cache, ["gtc"]) == discover_scales(ReproCache(tmp_path / "none"), ["gtc"])
    assert 8 not in cached_scales(cache_dir, capsys)["gtc"]
    assert cache.load("gtc", 8) is None
    assert (cache.stats.misses, cache.stats.hits, cache.stats.validation_failures) == (1, 0, 0)

    kwargs = dict(apps=["gtc"], scales={"gtc": [8]}, obs=Observability.disabled(),
                  argv=["test"], options=ExecOptions(bench_dir=None))
    out = run_pipeline(cache_dir=str(cache_dir), **kwargs)
    manifest = out["manifest"]["cache"]
    assert (manifest["misses"], manifest["stores"], manifest["validation_failures"]) == (1, 1, 0)
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(
        [stale.name, cache.path_for("gtc", 8).name])
    assert stale.read_bytes() == raw
    assert cache.list_entries() == [cache.path_for("gtc", 8)]
    cold = run_pipeline(cache_dir=str(tmp_path / "fresh"), **kwargs)
    assert json.dumps(out["results"], sort_keys=True) == json.dumps(cold["results"], sort_keys=True)


def test_stale_format4_entry_is_a_miss_and_is_rewritten_beside_it(tmp_path, capsys):
    assert_stale_file_is_a_miss(tmp_path, capsys, ".npz",
                                lambda path: write_format4_entry(path, synthesize("gtc", 8)))


def test_stale_json_document_is_a_miss_and_is_rewritten_beside_it(tmp_path, capsys):
    """A format-3 JSON document. Like the seed documents the repo once
    committed, it holds traffic the generator does not make for its key."""
    doc = oracles.to_document(synthesize("gtc", 8, {"steps": 3}))
    doc["metadata"]["overrides"] = {}
    assert_stale_file_is_a_miss(tmp_path, capsys, ".json",
                                lambda path: path.write_text(json.dumps(doc)))


@pytest.mark.parametrize("store", [True, False], ids=["store", "no-store"])
def test_other_format_entry_is_a_miss(tmp_path, store):
    """A ``.cols`` entry whose header names another format (a future 6)
    misses instead of failing its cell: the cell re-synthesizes, a
    store-on run replaces the file with the format-5 entry, and a
    store-off run leaves it alone."""
    cache = ReproCache(tmp_path / "cache")
    path = cache.store(synthesize("gtc", 8))
    want = path.read_bytes()
    header, columns = oracles.from_entry(want)
    path.write_bytes(oracles.to_entry(dict(header, format=6), columns.values()))
    other = path.read_bytes()

    kwargs = dict(apps=["gtc"], scales={"gtc": [8]}, obs=Observability.disabled(),
                  argv=["test"], options=ExecOptions(bench_dir=None))
    out = run_pipeline(cache_dir=str(cache.cache_dir), store=store, **kwargs)
    assert out["manifest"]["failed_cells"] == []
    stats = out["manifest"]["cache"]
    assert (stats["hits"], stats["misses"], stats["validation_failures"]) == (0, 1, 0)
    assert stats["stores"] == int(store)
    assert path.read_bytes() == (want if store else other)
    cold = run_pipeline(cache_dir=str(tmp_path / "fresh"), store=False, **kwargs)
    assert json.dumps(out["results"], sort_keys=True) == json.dumps(cold["results"], sort_keys=True)
