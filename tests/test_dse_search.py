"""Design-space search: cross-backend byte-identity, resume, tracing.

The acceptance contract for the DSE subsystem: a fixed-seed search
produces a byte-identical frontier artifact on the serial and
work-stealing backends, and the journal-backed resume path replays
to the same bytes. Candidates evaluate gtc @ p8, synthesized with the
store off, so the differentials stay fast.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hfast.dse.search import (
    OBJECTIVES,
    SearchSpec,
    SearchSpecError,
    frontier_bytes,
    run_search,
)
from hfast.dse.space import SearchSpace
from hfast.obs.profile import Observability
from hfast.sched.journal import RunJournal
from hfast.spec import ExecOptions

SPACE = SearchSpace(circuits=(1, 4), reconfig_costs=(0.0, 1e-3), timesteps=(1, 4))


def _spec(**overrides):
    kwargs = dict(app="gtc", nranks=8, space=SPACE, strategy="grid", seed=0)
    kwargs.update(overrides)
    return SearchSpec(**kwargs)


def _run(spec, tmp_path, obs=None, **options):
    options.setdefault("journal_dir", str(tmp_path / "journal"))
    options.setdefault("bench_dir", str(tmp_path))
    return run_search(spec, cache_dir=str(tmp_path / "cache"), obs=obs, store=False,
                      options=ExecOptions(**options))


# -- spec validation --------------------------------------------------------


def test_spec_validation_collects_errors():
    with pytest.raises(SearchSpecError) as exc:
        SearchSpec(app="nope", nranks=0, strategy="anneal")
    msgs = "\n".join(exc.value.errors)
    assert "app" in msgs and "nranks" in msgs and "strategy" in msgs


def test_spec_key_is_content_addressed():
    assert _spec().key == _spec().key
    assert _spec().key != _spec(seed=1).key
    assert _spec().key != _spec(space=SearchSpace()).key


# -- the acceptance differential -------------------------------------------


def test_grid_frontier_byte_identical_across_backends(tmp_path):
    spec = _spec()
    serial = _run(spec, tmp_path / "a", scheduler="static", workers=1)
    steal = _run(spec, tmp_path / "c", scheduler="stealing", workers=2)

    blob = frontier_bytes(serial["frontier"])
    assert frontier_bytes(steal["frontier"]) == blob

    doc = serial["frontier"]
    assert doc["kind"] == "hfast-dse-frontier"
    assert doc["search_key"] == spec.key
    assert doc["evaluated"] == SPACE.size
    assert doc["failed"] == []
    # Canonical serialization: sorted keys + trailing newline.
    assert blob == (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def test_evolution_frontier_byte_identical_and_seeded(tmp_path):
    spec = _spec(strategy="evolution", seed=7, population=4, generations=2)
    serial = _run(spec, tmp_path / "a", scheduler="static")
    steal = _run(spec, tmp_path / "b", scheduler="stealing", workers=2)
    assert frontier_bytes(serial["frontier"]) == frontier_bytes(steal["frontier"])

    other = _run(
        _spec(strategy="evolution", seed=8, population=4, generations=2),
        tmp_path / "c",
        scheduler="static",
    )
    assert other["frontier"]["seed"] == 8
    assert frontier_bytes(other["frontier"]) != frontier_bytes(serial["frontier"])


def test_resume_replays_to_identical_bytes(tmp_path):
    spec = _spec()
    first = _run(spec, tmp_path, scheduler="stealing")
    run_id = first["sched"]["run_id"]
    resumed = _run(
        spec, tmp_path, scheduler="stealing", resume=run_id
    )
    assert resumed["sched"]["cells_from_journal"] == SPACE.size
    assert frontier_bytes(resumed["frontier"]) == frontier_bytes(first["frontier"])


def journal_kinds(path):
    return [json.loads(line)["kind"] for line in Path(path).read_text().splitlines()]


def test_evolution_journal_completes_after_the_last_generation(tmp_path):
    """A stealing evolutionary search runs one batch per generation; its
    journal reads as complete only once the last one ran, and a journal
    cut after the first generation resumes to the same frontier."""
    space = SearchSpace(circuits=(1, 2, 4, 8), reconfig_costs=(0.0, 1e-3, 1e-2),
                        timesteps=(1, 2, 4))
    spec = _spec(space=space, strategy="evolution", seed=1, population=4, generations=3)
    first = _run(spec, tmp_path, scheduler="stealing", workers=2)
    path = first["sched"]["journal"]
    kinds = journal_kinds(path)
    assert kinds.count("run_complete") == 1 and kinds[-1] == "run_complete"
    generation_1 = len({c.key for c in space.sample(4, 1)})
    assert kinds.count("cell_done") > generation_1  # later generations ran
    lines = Path(path).read_text().splitlines(keepends=True)
    Path(path).write_text("".join(lines[: 1 + generation_1]))
    run_id = first["sched"]["run_id"]
    assert not RunJournal.load(Path(path).parent, run_id).complete
    resumed = _run(spec, tmp_path, scheduler="stealing", workers=2, resume=run_id)
    assert resumed["sched"]["cells_from_journal"] == generation_1
    assert frontier_bytes(resumed["frontier"]) == frontier_bytes(first["frontier"])
    kinds = journal_kinds(path)
    assert kinds.count("run_complete") == 1 and kinds[-1] == "run_complete"


def test_resume_requires_stealing(tmp_path):
    with pytest.raises(ValueError):
        _run(_spec(), tmp_path, scheduler="static", resume="r-123")


def test_parallel_search_requires_stealing(tmp_path):
    with pytest.raises(ValueError, match="stealing"):
        _run(_spec(), tmp_path, scheduler="static", workers=2)


# -- frontier structure -----------------------------------------------------


def test_objectives_and_frontier_invariants(tmp_path):
    out = _run(_spec(), tmp_path, scheduler="static")
    doc = out["frontier"]
    names = [o["name"] for o in doc["objectives"]]
    assert names == [o.name for o in OBJECTIVES]
    assert doc["evaluated"] == len(doc["frontier"]) + doc["dominated"]
    for point in doc["frontier"]:
        objs = point["objectives"]
        assert 0.0 <= objs["coverage"] <= 1.0
        assert objs["packet_bytes"] >= 0
        assert objs["reconfig_s"] >= 0.0
        assert objs["eval_cost"] > 0.0
    # Wall-clock side channels stay out of the artifact entirely.
    assert "wall_s" not in json.dumps(doc)
    assert out["evaluations"]  # ... and live here instead


def test_trace_carries_candidate_spans_and_frontier_event(tmp_path):
    obs = Observability(enabled=True, keep_events=True)
    spec = _spec()
    out = _run(spec, tmp_path, scheduler="static", obs=obs)
    events = obs.events
    roots = [e for e in events if e.get("event") == "span" and e.get("name") == "dse_search"]
    assert len(roots) == 1
    cands = [e for e in events if e.get("event") == "span" and e.get("name") == "candidate"]
    assert len(cands) == SPACE.size
    assert all(e["parent_id"] == roots[0]["span_id"] for e in cands)
    keys = {e["attrs"]["candidate"] for e in cands}
    assert len(keys) == SPACE.size
    frontier_events = [e for e in events if e.get("event") == "dse_frontier"]
    assert len(frontier_events) == 1
    assert frontier_events[0]["search_key"] == spec.key
    assert out["manifest"]["dse"]["search_key"] == spec.key
