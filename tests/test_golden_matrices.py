"""Golden communication-matrix fixtures.

Tiny-scale (8/16-rank) matrices for every app are committed under
``tests/golden/``; these tests pin the paper-facing numbers so a
synthesizer refactor (vectorization, dtype changes, regrouping) cannot
silently change them. Regenerate intentionally with::

    PYTHONPATH=src python scripts/gen_golden.py
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from hfast.apps import available_apps, synthesize
from hfast.matrix import reduce_matrix
from hfast.topology import analyze_topology

GOLDEN_DIR = Path(__file__).parent / "golden"
GEN_GOLDEN = Path(__file__).parent.parent / "scripts" / "gen_golden.py"
CASES = [(app, n) for app in ("cactus", "gtc", "lbmhd", "paratec") for n in (8, 16)]


def load_fixture(app: str, nranks: int) -> dict:
    path = GOLDEN_DIR / f"{app}_p{nranks}.json"
    assert path.exists(), f"missing golden fixture {path}; run scripts/gen_golden.py"
    return json.loads(path.read_text())


def test_fixture_set_is_complete():
    assert {(a, n) for a, n in CASES} <= {
        (f["app"], f["nranks"])
        for f in (json.loads(p.read_text()) for p in GOLDEN_DIR.glob("*.json"))
    }
    assert set(available_apps()) == {"cactus", "gtc", "lbmhd", "paratec"}


def test_generator_reproduces_committed_fixtures():
    """``scripts/gen_golden.py`` rebuilds every committed file byte for byte."""
    spec = importlib.util.spec_from_file_location("gen_golden", GEN_GOLDEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    assert len(paths) == len(CASES)
    for path in paths:
        fixture = json.loads(path.read_text())
        text = gen.fixture_text(fixture["app"], fixture["nranks"])
        assert text == path.read_text(encoding="utf-8"), path.name


@pytest.mark.parametrize("app,nranks", CASES)
def test_matrix_matches_golden(app, nranks):
    golden = load_fixture(app, nranks)
    trace = synthesize(app, nranks)
    cm = reduce_matrix(trace.batch, nranks)
    dense = oracles.to_planes(cm)
    assert dense.bytes_matrix.tolist() == golden["bytes_matrix"]
    assert dense.msg_matrix.tolist() == golden["msg_matrix"]
    assert cm.total_bytes == golden["total_bytes"]
    assert cm.total_messages == golden["total_messages"]
    assert trace.batch.call_totals == golden["call_totals"]
    assert analyze_topology(cm).max_degree == golden["max_degree"]


@pytest.mark.parametrize("app,nranks", CASES)
def test_scalar_backend_matches_golden(app, nranks):
    """The per-record reference synthesizer must agree with the committed
    numbers."""
    golden = load_fixture(app, nranks)
    trace = oracles.synthesize(app, nranks)
    cm = reduce_matrix(trace.batch, nranks)
    assert oracles.to_planes(cm).bytes_matrix.tolist() == golden["bytes_matrix"]
    assert cm.total_bytes == golden["total_bytes"]
    assert trace.batch.call_totals == golden["call_totals"]


@pytest.mark.parametrize("app,nranks", CASES)
def test_timing_matches_golden(app, nranks):
    """The LogGP model at the pinned seed reproduces the committed comm time."""
    golden = load_fixture(app, nranks)
    trace = synthesize(app, nranks, timing_seed=golden["timing_seed"])
    batch = trace.ensure_batch()
    assert batch.has_times
    assert float(np.sum(batch.total_time)) == golden["comm_time_s"]
    assert golden["comm_time_s"] > 0.0
    assert 0.0 < golden["pct_comm"] < 100.0
