"""Circuit budgets past every node degree.

``InterconnectConfig`` accepts any ``circuits_per_node >= 0``. No node
can reach degree ``nranks``, so the matcher clamps a larger budget to
``nranks``: a budget of ``2**63`` or more selects the circuits a budget
of ``nranks`` does instead of overflowing int64, and results still echo
the requested value.
"""

import json

import numpy as np
import pytest

import oracles
from hfast import interconnect
from hfast.apps import synthesize
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matcher import match_edges
from hfast.matrix import reduce_matrix
from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline
from hfast.spec import ExecOptions

HUGE = (2**63, 2**70)


#: Synthesized cells, and ``None`` for a seeded dense matrix with self-loops.
CELLS = [("cactus", 27), ("gtc", 8), ("lbmhd", 16), ("paratec", 12), (None, 14)]


def matrix(app, n):
    if app is not None:
        return reduce_matrix(synthesize(app, n).batch, n)
    rng = np.random.default_rng(900)
    bytes_m = rng.integers(0, 40, size=(n, n)) * (rng.random((n, n)) < 0.7)
    return oracles.from_planes(bytes_m, (bytes_m > 0).astype(np.int64))


def docs(cm, budget):
    """Static greedy and matching documents with their circuits in place of
    the config they echo, and the temporal document, at ``budget``."""
    config = InterconnectConfig(circuits_per_node=budget, timesteps=3, reconfig_cost=1e-4)
    static = [evaluate_hybrid(cm, config, strategy=s) for s in ("greedy", "matching")]
    out = [dict(ev.to_dict(), config=None, circuits=ev.circuits) for ev in static]
    return out + [evaluate_temporal(cm, config).to_dict()]


@pytest.mark.parametrize("app,n", CELLS)
def test_budgets_past_int64_equal_the_clamped_budget(app, n):
    cm = matrix(app, n)
    want = match_edges(cm.src, cm.dst, cm.bytes, n, n).tolist()
    for budget in (2**40, *HUGE):
        assert match_edges(cm.src, cm.dst, cm.bytes, n, budget).tolist() == want, budget
        assert oracles.match_edges(cm.src, cm.dst, cm.bytes, n, budget).tolist() == want, budget
    want_docs = docs(cm, n)
    for budget in (2**40, *HUGE):
        assert docs(cm, budget) == want_docs, budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interconnect, "match_edges", oracles.match_edges)
        for budget in HUGE:
            assert docs(cm, budget) == want_docs, budget


@pytest.mark.parametrize("app,n", CELLS)
def test_huge_greedy_budget_equals_the_dense_reference(app, n):
    cm = matrix(app, n)
    dm = oracles.to_planes(cm)
    for budget in HUGE:
        config = InterconnectConfig(circuits_per_node=budget)
        got = evaluate_hybrid(cm, config, strategy="greedy")
        want = oracles.evaluate_hybrid(dm, config, strategy="greedy")
        assert got.circuits == want.circuits
        assert got.to_dict() == want.to_dict()


def test_pipeline_cell_at_a_2_to_the_63_budget(tmp_path):
    def run(budget):
        return run_pipeline(
            apps=["gtc"],
            scales={"gtc": [8]},
            cache_dir=str(tmp_path),
            obs=Observability.disabled(),
            store=False,
            argv=["test"],
            options=ExecOptions(bench_dir=None),
            config=InterconnectConfig(circuits_per_node=budget),
        )

    huge = run(2**63)
    assert huge["manifest"]["failed_cells"] == []
    (result,) = huge["results"]
    assert result["interconnect"]["config"]["circuits_per_node"] == 2**63
    (clamped,) = run(8)["results"]
    result["interconnect"].pop("config")
    clamped["interconnect"].pop("config")
    assert json.dumps(result, sort_keys=True) == json.dumps(clamped, sort_keys=True)
