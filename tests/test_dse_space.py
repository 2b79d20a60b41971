"""Parameter-space spec: validation, determinism, content addressing."""

from __future__ import annotations

import pytest

from hfast.dse.space import (
    DIMENSIONS,
    SPACE_FORMAT,
    Candidate,
    SearchSpace,
    SpaceValidationError,
)
from hfast.interconnect import InterconnectConfig

SPACE = SearchSpace(circuits=(1, 4), reconfig_costs=(0.0, 1e-3), timesteps=(1, 4))


# -- validation -------------------------------------------------------------


def test_dimensions_are_canonical_and_sorted():
    s = SearchSpace(circuits=(8, 1, 1, 4))
    assert s.circuits == (1, 4, 8)  # deduped + sorted
    assert s.size == 3 * len(s.reconfig_costs) * len(s.timesteps)


def test_validation_collects_every_error():
    with pytest.raises(SpaceValidationError) as exc:
        SearchSpace(circuits=(-1,), reconfig_costs=(-1.0,), timesteps=())
    msgs = "\n".join(exc.value.errors)
    assert "circuits" in msgs and "reconfig_costs" in msgs and "timesteps" in msgs
    assert len(exc.value.errors) >= 3


def test_empty_dimension_rejected():
    with pytest.raises(SpaceValidationError):
        SearchSpace(reconfig_costs=())


def test_from_doc_rejects_unknown_fields_and_bad_format():
    with pytest.raises(SpaceValidationError) as exc:
        SearchSpace.from_doc({"circuits": [1], "bogus": True, "format": 99})
    msgs = "\n".join(exc.value.errors)
    assert "bogus" in msgs and "format" in msgs


def test_from_doc_rejects_the_removed_matchers_dimension():
    with pytest.raises(SpaceValidationError) as exc:
        SearchSpace.from_doc({"circuits": [1], "matchers": ["vector"]})
    assert exc.value.errors == ["space: unknown field(s): matchers"]


def test_from_doc_fills_defaults():
    s = SearchSpace.from_doc({"circuits": [2]})
    assert s.circuits == (2,)
    assert s.timesteps == SearchSpace().timesteps


# -- enumeration and sampling ----------------------------------------------


def test_grid_enumerates_full_product_in_canonical_order():
    grid = SPACE.grid()
    assert len(grid) == SPACE.size == 8
    assert len(set(c.key for c in grid)) == 8
    # Canonical dimension order: circuits vary slowest, timesteps fastest.
    assert [c.circuits_per_node for c in grid[:4]] == [1, 1, 1, 1]
    assert [c.timesteps for c in grid[:2]] == [1, 4]


def test_sample_is_seed_deterministic():
    a = SPACE.sample(6, seed=3)
    b = SPACE.sample(6, seed=3)
    assert [c.key for c in a] == [c.key for c in b]
    assert all(c in SPACE.grid() for c in a)
    assert [c.key for c in SPACE.sample(6, seed=4)] != [c.key for c in a]


def test_mutate_changes_exactly_one_dimension():
    cand = SPACE.grid()[0]
    for stream in range(20):
        mut = SPACE.mutate(cand, seed=1, stream=stream)
        diffs = [
            d
            for d in (
                "circuits_per_node",
                "reconfig_cost",
                "timesteps",
            )
            if getattr(mut, d) != getattr(cand, d)
        ]
        assert len(diffs) <= 1
        assert mut == SPACE.mutate(cand, seed=1, stream=stream)  # deterministic


# -- round-trips and keys ---------------------------------------------------


def test_space_doc_round_trip_preserves_key():
    doc = SPACE.to_doc()
    assert doc["format"] == SPACE_FORMAT
    assert SearchSpace.from_doc(doc) == SPACE
    assert SearchSpace.from_doc(doc).key == SPACE.key


def test_space_key_pinned():
    # The key feeds every frontier artifact; an accidental layout change
    # must fail loudly.
    assert SPACE.key == SearchSpace(
        circuits=(4, 1), reconfig_costs=(1e-3, 0.0), timesteps=(4, 1)
    ).key
    assert SPACE.key != SearchSpace().key


def test_candidate_round_trip_and_config():
    cand = Candidate(circuits_per_node=2, reconfig_cost=5e-4, timesteps=4)
    assert Candidate.from_doc(cand.to_doc()) == cand
    cfg = cand.config()
    # Searched dimensions come from the candidate...
    assert cfg.circuits_per_node == 2 and cfg.timesteps == 4
    assert cfg.reconfig_cost == 5e-4
    # ...everything else from the defaults, so the search key covers it.
    default = InterconnectConfig()
    assert cfg.circuit_bandwidth == default.circuit_bandwidth
    assert cfg.slice_seed == default.slice_seed


def test_candidate_key_is_content_addressed():
    a = Candidate(1, 0.0, 1)
    assert a.key == Candidate(1, 0.0, 1).key
    assert a.key != Candidate(1, 0.0, 4).key
    assert DIMENSIONS == ("circuits", "reconfig_costs", "timesteps")
