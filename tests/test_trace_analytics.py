"""Post-mortem trace analytics: loader tolerance, tree building,
critical paths, rollups, and scheduler attribution.

The acceptance bar: both backends (serial / stealing) emit
the same tree shape with the same span ids, so the cost-weighted
critical path and the stage structure must be *identical* across them —
and stay identical when the journal, not the live trace, is the source.
"""

import json
import os

import pytest

from hfast.obs.analytics import (
    TraceError,
    TraceTree,
    attribution,
    cell_critical_paths,
    critical_path,
    diff_traces,
    load_events,
    render_gantt,
    stage_rollup,
    summarize,
)
from hfast.obs.profile import Observability
from hfast.pipeline import run_pipeline
from hfast.sched.cost import estimate_cell_cost
from hfast.spec import ExecOptions

APPS = ["cactus", "gtc", "lbmhd", "paratec"]
SCALES = {app: [8] for app in APPS}


def span(span_id, name, parent_id, depth, wall_s, **attrs):
    return {
        "event": "span", "span_id": span_id, "name": name,
        "parent_id": parent_id, "depth": depth, "wall_s": wall_s,
        "attrs": attrs,
    }


def make_events():
    """Two-cell synthetic trace: gtc_p8 is the wall hog, cactus_p8 the
    analytic-cost hog (at p8 cactus has the largest estimated cost)."""
    return [
        span(1, "pipeline", None, 0, 1.0),
        span(2, "cell", 1, 1, 0.6, app="gtc", nranks=8),
        span(3, "analyze_app", 2, 2, 0.55, app="gtc", nranks=8),
        span(4, "cache_load", 3, 3, 0.1),
        span(5, "synthesize", 3, 3, 0.4),
        span(6, "cell", 1, 1, 0.3, app="cactus", nranks=8),
        span(7, "analyze_app", 6, 2, 0.25, app="cactus", nranks=8),
    ]


# ---------------------------------------------------------------------------
# Tolerant loading


def test_truncated_final_line_is_skipped_with_warning(tmp_path):
    path = tmp_path / "t.jsonl"
    good = [json.dumps(ev) for ev in make_events()[:2]]
    path.write_text("\n".join(good) + "\n" + '{"event": "span", "span_id": 99, "na')
    warns = []
    events = load_events(path, warn=warns.append)
    assert len(events) == 2
    assert any("truncated final line" in w for w in warns)
    # A crash artifact must never be fatal, even under --strict.
    assert len(load_events(path, strict=True, warn=warns.append)) == 2


def test_malformed_interior_line_skipped_unless_strict(tmp_path):
    path = tmp_path / "t.jsonl"
    lines = [json.dumps(make_events()[0]), "definitely not json",
             json.dumps(make_events()[1])]
    path.write_text("\n".join(lines) + "\n")
    warns = []
    assert len(load_events(path, warn=warns.append)) == 2
    assert any("malformed" in w for w in warns)
    with pytest.raises(TraceError, match="malformed"):
        load_events(path, strict=True, warn=warns.append)


def test_blank_lines_and_non_object_records(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(make_events()[0]) + "\n\n[1, 2]\n" +
                    json.dumps(make_events()[1]) + "\n")
    warns = []
    assert len(load_events(path, warn=warns.append)) == 2  # [1,2] is not an event


def test_missing_file_and_empty_dir_raise(tmp_path):
    with pytest.raises(TraceError, match="no such trace file"):
        load_events(tmp_path / "nope.jsonl")
    with pytest.raises(TraceError, match="no .jsonl"):
        load_events(tmp_path)


def test_directory_resolves_to_newest_jsonl(tmp_path):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(json.dumps(span(1, "stale", None, 0, 1.0)) + "\n")
    new.write_text(json.dumps(span(1, "fresh", None, 0, 1.0)) + "\n")
    os.utime(old, (1, 1))
    os.utime(new, (2, 2))
    events = load_events(tmp_path)
    assert events[0]["name"] == "fresh"


# ---------------------------------------------------------------------------
# Tree building


def test_tree_links_children_in_span_id_order():
    tree = TraceTree(make_events())
    assert not tree.empty
    assert tree.root.name == "pipeline"
    assert [c.span_id for c in tree.root.children] == [2, 6]
    assert [n.span_id for n in tree.walk()] == [1, 2, 3, 4, 5, 6, 7]
    assert [c.label for c in tree.cells()] == ["cell[gtc_p8]", "cell[cactus_p8]"]
    # Self time: wall minus child walls, clamped at zero.
    assert tree.root.self_s == pytest.approx(0.1)
    assert tree.nodes[3].self_s == pytest.approx(0.05)


def test_orphaned_span_promoted_to_root_with_warning():
    warns = []
    tree = TraceTree(make_events() + [span(10, "stray", 99, 1, 0.01)], warn=warns.append)
    assert {r.name for r in tree.roots} == {"pipeline", "stray"}
    assert any("dangling parent" in w for w in warns)
    assert tree.root.name == "pipeline"  # the pipeline span still wins


def test_duplicate_span_id_keeps_first():
    warns = []
    dup = span(2, "impostor", 1, 1, 9.9)
    tree = TraceTree(make_events() + [dup], warn=warns.append)
    assert tree.nodes[2].name == "cell"
    assert any("duplicate span id" in w for w in warns)


def test_root_falls_back_to_heaviest_when_no_pipeline_span():
    tree = TraceTree([span(1, "a", None, 0, 0.1), span(2, "b", None, 0, 0.9)])
    assert tree.root.name == "b"


def test_empty_tree_degrades_gracefully():
    tree = TraceTree([])
    assert tree.empty and tree.root is None
    assert critical_path(tree) == []
    assert stage_rollup(tree) == []
    assert attribution(tree) is None
    assert summarize(tree)["spans"] == 0


# ---------------------------------------------------------------------------
# Critical path and rollups


def test_wall_critical_path_follows_heaviest_child():
    path = critical_path(TraceTree(make_events()))
    assert [e["label"] for e in path] == [
        "pipeline", "cell[gtc_p8]", "analyze_app[gtc_p8]", "synthesize",
    ]
    assert [e["weight"] for e in path] == [1.0, 0.6, 0.55, 0.4]


def test_cost_critical_path_is_wall_independent():
    path = critical_path(TraceTree(make_events()), weight="cost")
    # cactus_p8 has the largest analytic cost at p8, despite the smaller wall.
    assert [e["label"] for e in path] == [
        "pipeline", "cell[cactus_p8]", "analyze_app[cactus_p8]",
    ]
    assert path[0]["weight"] == path[1]["weight"] > 0
    assert path[1]["weight"] == pytest.approx(estimate_cell_cost("cactus", 8), rel=1e-6)


def test_unknown_weight_rejected():
    with pytest.raises(ValueError, match="unknown weight"):
        critical_path(TraceTree(make_events()), weight="vibes")


def test_cell_critical_paths_keyed_by_cell():
    paths = cell_critical_paths(TraceTree(make_events()))
    assert set(paths) == {"gtc_p8", "cactus_p8"}
    assert [e["label"] for e in paths["gtc_p8"]] == [
        "cell[gtc_p8]", "analyze_app[gtc_p8]", "synthesize",
    ]


def test_stage_rollup_partitions_run_wall():
    rows = stage_rollup(TraceTree(make_events()))
    by_stage = {r["stage"]: r for r in rows}
    assert by_stage["cell"]["calls"] == 2
    assert by_stage["synthesize"]["self_s"] == pytest.approx(0.4)
    assert by_stage["synthesize"]["pct_self"] == pytest.approx(40.0)
    # Self times sum to the root wall exactly (the flamegraph invariant).
    assert sum(r["self_s"] for r in rows) == pytest.approx(1.0)
    assert rows[0]["stage"] == "synthesize"  # heaviest self time first


# ---------------------------------------------------------------------------
# Scheduler attribution


def timing(app, worker, t_start, t_end, **kw):
    return {"event": "cell_timing", "app": app, "nranks": 8, "worker": worker,
            "t_start": t_start, "t_end": t_end, "ok": True, "attempts": 1, **kw}


def test_attribution_queue_wait_execute_and_lanes():
    events = [span(1, "pipeline", None, 0, 1.0),
              timing("gtc", 0, 100.0, 100.5),
              timing("cactus", 1, 100.1, 100.4)]
    attr = attribution(TraceTree(events))
    assert attr["lanes"] == ["w0", "w1"]
    assert attr["span_s"] == pytest.approx(0.5)
    assert attr["total_execute_s"] == pytest.approx(0.8)
    assert attr["total_queue_wait_s"] == pytest.approx(0.1)
    assert attr["utilization"] == pytest.approx(0.8)
    assert len(attr["busy_timeline"]) == 20
    cells = {c["cell"]: c for c in attr["cells"]}
    assert cells["gtc_p8"]["queue_wait_s"] == 0.0
    assert cells["cactus_p8"]["queue_wait_s"] == pytest.approx(0.1)


def test_attribution_charges_failed_attempts_to_retry_exec():
    events = [span(1, "pipeline", None, 0, 1.0),
              timing("gtc", 0, 100.0, 100.5, attempts=2),
              {"event": "sched_task", "cell": "gtc_p8", "ok": False, "wall_s": 0.2}]
    attr = attribution(TraceTree(events))
    assert attr["total_retry_exec_s"] == pytest.approx(0.2)
    assert attr["cells"][0]["retry_exec_s"] == pytest.approx(0.2)


def test_attribution_none_without_cell_timing():
    assert attribution(TraceTree(make_events())) is None
    assert "no cell_timing" in render_gantt(TraceTree(make_events()))


def test_gantt_renders_one_row_per_cell():
    events = [span(1, "pipeline", None, 0, 1.0),
              timing("gtc", 0, 100.0, 100.5),
              timing("cactus", 1, 100.1, 100.4)]
    text = render_gantt(TraceTree(events), width=40)
    assert "gtc_p8" in text and "cactus_p8" in text
    assert text.count("|") == 4  # two framed bars


def test_diff_traces_self_diff_is_all_zero():
    tree = TraceTree(make_events())
    doc = diff_traces(tree, tree)
    assert doc["wall_delta_pct"] == 0.0
    assert all(s["delta_pct"] == 0.0 for s in doc["stages"])
    assert doc["a_critical_path"] == doc["b_critical_path"]
    cells = {c["cell"]: c for c in doc["cells"]}
    assert cells["gtc_p8"]["delta_pct"] == 0.0


def test_diff_traces_reports_missing_cells_and_deltas():
    b_events = [ev for ev in make_events() if ev["span_id"] not in (6, 7)]
    b_events = [dict(ev, wall_s=ev["wall_s"] * 2) if ev["event"] == "span" else ev
                for ev in b_events]
    doc = diff_traces(TraceTree(make_events()), TraceTree(b_events))
    assert doc["wall_delta_pct"] == pytest.approx(100.0)
    cells = {c["cell"]: c for c in doc["cells"]}
    assert cells["cactus_p8"]["b_wall_s"] is None
    assert cells["gtc_p8"]["delta_pct"] == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# Backend identity: serial / stealing produce the same analytics


@pytest.fixture(scope="module")
def backend_traces(tmp_path_factory):
    base = tmp_path_factory.mktemp("backends")
    journal_dir = base / "journal"
    events = {}
    for name, options in {
        "serial": ExecOptions(bench_dir=None),
        "stealing": ExecOptions(scheduler="stealing", workers=4,
                                journal_dir=str(journal_dir), bench_dir=None),
    }.items():
        obs = Observability(enabled=True)
        run_pipeline(apps=APPS, scales=SCALES, cache_dir=str(base / name),
                     obs=obs, argv=["test"], options=options)
        events[name] = obs.events
    return {"events": events, "journal_dir": journal_dir}


def cost_fingerprint(tree):
    return [(e["label"], e["weight"]) for e in critical_path(tree, weight="cost")]


def test_cost_critical_path_identical_across_backends(backend_traces):
    paths = {name: cost_fingerprint(TraceTree(evs))
             for name, evs in backend_traces["events"].items()}
    assert paths["serial"] == paths["stealing"]
    labels = [label for label, _ in paths["serial"]]
    assert labels[0] == "pipeline"
    # The path descends into the analytically heaviest cell of the sweep.
    heaviest = max(APPS, key=lambda a: estimate_cell_cost(a, 8))
    assert f"cell[{heaviest}_p8]" in labels


def test_per_cell_cost_paths_identical_across_backends(backend_traces):
    per_cell = {}
    for name, evs in backend_traces["events"].items():
        paths = cell_critical_paths(TraceTree(evs), weight="cost")
        per_cell[name] = {
            k: [(e["label"], e["weight"]) for e in v] for k, v in paths.items()
        }
    assert set(per_cell["serial"]) == {f"{a}_p8" for a in APPS}
    assert per_cell["serial"] == per_cell["stealing"]


def test_stage_structure_identical_across_backends(backend_traces):
    shapes = {
        name: sorted((r["stage"], r["calls"]) for r in stage_rollup(TraceTree(evs)))
        for name, evs in backend_traces["events"].items()
    }
    assert shapes["serial"] == shapes["stealing"]


def reweighted(events):
    """Substitute deterministic walls keyed off span ids: the remaining
    variation across backends is exactly the tree shape."""
    return [
        dict(ev, wall_s=((ev["span_id"] * 37) % 101 + 1) / 100.0)
        if ev.get("event") == "span" else ev
        for ev in events
    ]


def test_self_time_analytics_identical_for_identical_walls(backend_traces):
    fingerprints = {}
    for name, evs in backend_traces["events"].items():
        tree = TraceTree(reweighted(evs))
        fingerprints[name] = (critical_path(tree), stage_rollup(tree))
    assert fingerprints["serial"] == fingerprints["stealing"]


def test_journal_reconstruction_matches_live_trace(backend_traces):
    live = TraceTree(backend_traces["events"]["stealing"])
    replay = TraceTree.load(backend_traces["journal_dir"])
    assert len(replay.cells()) == len(live.cells()) == len(APPS)
    assert cost_fingerprint(replay) == cost_fingerprint(live)
    # Journaled results carry execution stamps, so attribution works too.
    attr = attribution(replay)
    assert attr is not None and len(attr["cells"]) == len(APPS)


def test_live_traces_carry_attribution_on_every_backend(backend_traces):
    for name, evs in backend_traces["events"].items():
        attr = attribution(TraceTree(evs))
        assert attr is not None, name
        assert len(attr["cells"]) == len(APPS), name
        assert attr["utilization"] is None or 0 < attr["utilization"] <= 1.0


def test_summarize_counts_cells_and_spans(backend_traces):
    tree = TraceTree(backend_traces["events"]["stealing"])
    doc = summarize(tree, top=3)
    assert doc["cells"] == len(APPS)
    assert doc["spans"] == len(tree.nodes)
    assert doc["scheduler"] == "stealing"
    assert doc["failed_cells"] == []
    assert len(doc["critical_path"]) <= 3 and len(doc["stages"]) == 3
