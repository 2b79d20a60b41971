"""Differential identity: the matcher against its pure-Python reference.

The repo's byte-identity discipline applied to the matcher rewrite:
:func:`hfast.matcher.match_edges` must produce the circuit assignments
and temporal-evaluator outputs of the reference matcher in
``tests/oracles.py`` on every golden fixture, every synthesized app, and
seeded random matrices. Each comparison runs the evaluators twice: as
they are, and with the reference swapped in at the name they call,
``hfast.interconnect.match_edges``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from hfast import interconnect
from hfast.apps import synthesize
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import CommMatrix, reduce_matrix
from hfast.spec import ExecOptions

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [(app, n) for app in ("cactus", "gtc", "lbmhd", "paratec") for n in (8, 16)]
APPS = ("cactus", "gtc", "lbmhd", "paratec")


def golden_matrix(app: str, nranks: int) -> CommMatrix:
    fixture = json.loads((GOLDEN_DIR / f"{app}_p{nranks}.json").read_text())
    return oracles.from_planes(fixture["bytes_matrix"], fixture["msg_matrix"])


def matching_circuits(cm: CommMatrix, budget: int) -> list[tuple[int, int]]:
    config = InterconnectConfig(circuits_per_node=budget)
    return evaluate_hybrid(cm, config, strategy="matching").circuits


def hybrid_doc(cm, budget=4):
    ev = evaluate_hybrid(cm, InterconnectConfig(circuits_per_node=budget), strategy="matching")
    return json.dumps(ev.to_dict(), sort_keys=True)


def temporal_doc(cm, timesteps=4, reconfig_cost=1e-3):
    ev = evaluate_temporal(
        cm, InterconnectConfig(timesteps=timesteps, reconfig_cost=reconfig_cost)
    )
    return json.dumps(ev.to_dict(), sort_keys=True)


def assert_same(fn, msg=None):
    """``fn()`` returns the same with the production matcher and with the
    reference swapped in."""
    got = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interconnect, "match_edges", oracles.match_edges)
        want = fn()
    assert got == want, msg


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
@pytest.mark.parametrize("budget", [1, 2, 4])
def test_assignment_identity_on_goldens(app, nranks, budget):
    cm = golden_matrix(app, nranks)
    assert_same(lambda: matching_circuits(cm, budget))


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_hybrid_evaluation_identity_on_goldens(app, nranks):
    cm = golden_matrix(app, nranks)
    assert_same(lambda: hybrid_doc(cm))


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_temporal_evaluation_identity_on_goldens(app, nranks):
    cm = golden_matrix(app, nranks)
    assert_same(lambda: temporal_doc(cm))


@pytest.mark.parametrize("app", APPS)
def test_identity_on_synthesized_apps(app):
    """Beyond the goldens: freshly synthesized traces at a scale the
    fixtures don't pin."""
    cm = reduce_matrix(synthesize(app, 32).batch, 32)
    assert_same(lambda: hybrid_doc(cm))
    assert_same(lambda: temporal_doc(cm))


def test_identity_on_seeded_random_matrices():
    rng = np.random.default_rng(41)
    for trial in range(15):
        n = int(rng.integers(3, 24))
        density = float(rng.uniform(0.1, 1.0))
        max_w = int(rng.integers(2, 60))
        bytes_m = (
            rng.integers(0, max_w, size=(n, n)) * (rng.random((n, n)) < density)
        ).astype(np.int64)
        msg_m = (bytes_m > 0).astype(np.int64) * rng.integers(1, 5, size=(n, n))
        cm = oracles.from_planes(bytes_m, msg_m)
        T = int(rng.integers(1, 6))
        cost = float(rng.choice([0.0, 1e-4, 1e-3]))
        budget = int(rng.integers(1, 5))
        assert_same(lambda: temporal_doc(cm, timesteps=T, reconfig_cost=cost), f"trial {trial}")
        assert_same(lambda: hybrid_doc(cm, budget=budget), f"trial {trial}")


def test_identity_on_seeded_float_weights():
    """Non-integer weights over 19 orders of magnitude, and weights near
    2**53 where adding 1.0 rounds away — float regimes integer traffic
    never reaches. After a greedy seed an augment attempt rarely sums
    more than two picks, so ``tests/test_matcher_augment.py`` pins the
    summation order itself, from unsaturated states."""
    rng = np.random.default_rng(43)
    near_2_53 = np.array([2.0**53 + 2, 2.0**53, 1.0, 1e-3])
    for trial in range(40):
        n = int(rng.integers(4, 24))
        present = rng.random((n, n)) < float(rng.uniform(0.3, 1.0))
        if trial % 2:
            w = 10.0 ** rng.uniform(-3, 16, size=(n, n))
        else:
            w = rng.choice(near_2_53, p=[0.15, 0.15, 0.6, 0.1], size=(n, n))
        w = w * present
        budget = int(rng.integers(1, 5))
        src, dst = np.nonzero(w)
        assert_same(
            lambda: interconnect.match_edges(src, dst, w[src, dst], n, budget).tolist(),
            f"trial {trial}",
        )


def test_identity_on_tie_heavy_matrices():
    """Uniform weights maximize tie-breaking pressure — the regime where
    order equivalence with the reference is most fragile."""
    for n in (5, 8, 13):
        w = np.full((n, n), 7, dtype=np.int64)
        np.fill_diagonal(w, 0)
        cm = oracles.from_planes(w, w > 0)
        assert_same(lambda: hybrid_doc(cm))
        assert_same(lambda: temporal_doc(cm))


def test_temporal_reduces_to_static_matching_for_all_backends():
    """T=1 + zero reconfig cost must reproduce the static matching
    evaluation exactly, under the production matcher and the reference."""

    def reductions():
        out = []
        for app, nranks in GOLDEN_CASES:
            cm = golden_matrix(app, nranks)
            config = InterconnectConfig(timesteps=1, reconfig_cost=0.0)
            temporal = evaluate_temporal(cm, config)
            static = evaluate_hybrid(cm, config, strategy="matching")
            assert temporal.circuit_bytes == static.circuit_bytes
            assert temporal.hybrid_time == static.hybrid_time
            assert temporal.packet_only_time == static.packet_only_time
            out.append(temporal.circuit_bytes)
        return out

    assert_same(reductions)


def test_pipeline_results_identical_across_backends(tmp_path):
    """End-to-end: a serial pipeline run's results are byte-identical
    with the reference matcher swapped in."""
    from hfast.pipeline import run_pipeline

    def results():
        out = run_pipeline(
            apps=["gtc", "cactus", "paratec"],
            scales={"gtc": [16], "cactus": [16], "paratec": [12]},
            cache_dir=str(tmp_path / "cache"),
            store=False,
            options=ExecOptions(bench_dir=None),
        )
        assert not out["manifest"]["failed_cells"]
        return json.dumps(out["results"], sort_keys=True)

    assert_same(results)
