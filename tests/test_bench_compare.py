"""The perf-trajectory guard: scripts/bench_compare.py.

The comparer is imported as a module (no subprocess) and driven with
synthetic BENCH documents so its pass/fail policy — the 25% regression
gate and the noise floor for sub-tick stages — is pinned by tests.
"""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
sys.modules["bench_compare"] = bench_compare
spec.loader.exec_module(bench_compare)


def write_bench(path: Path, stages: dict[str, float], sha="abc", stamp=None,
                workers=1) -> Path:
    doc = {
        "git_sha": sha,
        "timestamp": stamp,
        "workers": workers,
        "profile": {
            "stages": [
                {"stage": name, "calls": 1, "wall_s": wall, "pct": 0.0}
                for name, wall in stages.items()
            ]
        },
        "runs": [],
    }
    path.write_text(json.dumps(doc))
    return path


def test_no_regression_passes(tmp_path, capsys):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0, "matrix_reduce": 0.4})
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 1.1, "matrix_reduce": 0.38})
    assert bench_compare.main([str(base), str(cand)]) == 0
    assert "no stage regressions" in capsys.readouterr().out


def test_regression_over_threshold_fails(tmp_path, capsys):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 1.3})
    assert bench_compare.main([str(base), str(cand)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "regressed 30.0%" in captured.err


def test_noise_floor_masks_tiny_stages(tmp_path, capsys):
    """A 10x blowup on a sub-tick stage is scheduler noise, not code."""
    base = write_bench(tmp_path / "BENCH_a.json", {"cache_load": 0.003})
    cand = write_bench(tmp_path / "BENCH_b.json", {"cache_load": 0.03})
    assert bench_compare.main([str(base), str(cand), "--min-wall", "0.05"]) == 0
    assert "noise-floor" in capsys.readouterr().out


def test_dir_mode_picks_two_newest_by_timestamp(tmp_path):
    write_bench(tmp_path / "BENCH_1.json", {"pipeline": 1.0}, stamp="2026-01-01T00:00:00")
    base = write_bench(tmp_path / "BENCH_2.json", {"pipeline": 1.0}, stamp="2026-02-01T00:00:00")
    cand = write_bench(tmp_path / "BENCH_3.json", {"pipeline": 2.0}, stamp="2026-03-01T00:00:00")
    picked = bench_compare.pick_newest_two(tmp_path)
    assert picked == [base, cand]
    assert bench_compare.main(["--dir", str(tmp_path)]) == 1


def test_dir_mode_with_single_snapshot_passes(tmp_path, capsys):
    write_bench(tmp_path / "BENCH_only.json", {"pipeline": 1.0})
    assert bench_compare.main(["--dir", str(tmp_path)]) == 0
    assert "fewer than two" in capsys.readouterr().out


def test_empty_string_paths_fall_back_to_dir_scan(tmp_path, capsys):
    """CI's $(ls ...) substitutions expand to "" on a fresh checkout."""
    assert bench_compare.main(["", "", "--dir", str(tmp_path)]) == 0
    assert "fewer than two" in capsys.readouterr().out


def test_single_path_is_no_baseline_not_an_error(tmp_path, capsys):
    cand = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    assert bench_compare.main([str(cand), ""]) == 0
    assert "no baseline" in capsys.readouterr().out


def test_three_paths_still_error(tmp_path):
    import pytest

    p = str(write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0}))
    with pytest.raises(SystemExit):
        bench_compare.main([p, p, p])


def test_differing_worker_counts_skip_comparison(tmp_path, capsys):
    """Parallel stage walls are per-process sums; never diff across counts."""
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0}, workers=1)
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 4.0}, workers=4)
    assert bench_compare.main([str(base), str(cand)]) == 0
    assert "worker counts differ" in capsys.readouterr().out


def test_stage_present_on_one_side_is_reported_not_fatal(tmp_path, capsys):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0, "old_stage": 0.5})
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 1.0, "new_stage": 0.5})
    assert bench_compare.main([str(base), str(cand)]) == 0
    out = capsys.readouterr().out
    assert "only-in-baseline" in out and "only-in-candidate" in out


def test_record_writes_delta_table_without_changing_verdict(tmp_path):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0, "matrix_reduce": 0.4})
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 2.0, "matrix_reduce": 0.4})
    for doc_path, total in ((base, 1.0), (cand, 2.0)):
        doc = json.loads(doc_path.read_text())
        doc["profile"]["total_wall_s"] = total
        doc_path.write_text(json.dumps(doc))
    record = tmp_path / "deltas" / "record.json"
    # The regression still fails the run; the record is written regardless.
    assert bench_compare.main([str(base), str(cand), "--record", str(record)]) == 1
    doc = json.loads(record.read_text())
    assert doc["passed"] is False
    assert doc["total_wall_delta_pct"] == 100.0
    stages = {r["stage"]: r for r in doc["stages"]}
    assert stages["pipeline"]["verdict"] == "REGRESSED"
    assert stages["matrix_reduce"]["verdict"] == "ok"
    assert doc["failures"]


def test_missing_candidate_file_skips_with_exit_zero(tmp_path, capsys):
    """CI hands over whatever `ls -t` found; a vanished file is a skip."""
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    assert bench_compare.main([str(base), str(tmp_path / "BENCH_gone.json")]) == 0
    out = capsys.readouterr().out
    assert "cannot read" in out and "nothing to guard" in out


def test_empty_file_skips_with_exit_zero(tmp_path, capsys):
    """A truncated upload (0 bytes) must not fail the trajectory guard."""
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    empty = tmp_path / "BENCH_empty.json"
    empty.write_text("")
    assert bench_compare.main([str(base), str(empty)]) == 0
    assert "cannot read" in capsys.readouterr().out


def test_invalid_json_skips_with_exit_zero(tmp_path, capsys):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text('{"git_sha": "abc", "profile": {')
    assert bench_compare.main([str(base), str(broken)]) == 0
    assert "cannot read" in capsys.readouterr().out


def test_non_bench_document_skips_with_exit_zero(tmp_path, capsys):
    """Valid JSON that isn't a BENCH snapshot (e.g. a stray manifest)."""
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    stray = tmp_path / "BENCH_stray.json"
    stray.write_text(json.dumps({"manifest": True}))
    assert bench_compare.main([str(base), str(stray)]) == 0
    assert "not a BENCH document" in capsys.readouterr().out


def test_unusable_snapshot_skip_writes_record(tmp_path):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0})
    empty = tmp_path / "BENCH_empty.json"
    empty.write_text("")
    record = tmp_path / "record.json"
    assert bench_compare.main([str(base), str(empty), "--record", str(record)]) == 0
    assert json.loads(record.read_text())["skipped"] == "unusable snapshot"


def test_dir_scan_ignores_unusable_snapshots(tmp_path, capsys):
    """Damaged files in the artifact dir neither crash nor get picked."""
    (tmp_path / "BENCH_empty.json").write_text("")
    (tmp_path / "BENCH_scalar.json").write_text("42")
    (tmp_path / "BENCH_noprof.json").write_text(json.dumps({"git_sha": "x"}))
    base = write_bench(tmp_path / "BENCH_1.json", {"pipeline": 1.0},
                       stamp="2026-01-01T00:00:00")
    cand = write_bench(tmp_path / "BENCH_2.json", {"pipeline": 1.0},
                       stamp="2026-02-01T00:00:00")
    assert bench_compare.pick_newest_two(tmp_path) == [base, cand]
    assert bench_compare.main(["--dir", str(tmp_path)]) == 0
    assert "no stage regressions" in capsys.readouterr().out


def test_dir_scan_with_only_unusable_snapshots_skips(tmp_path, capsys):
    (tmp_path / "BENCH_a.json").write_text("")
    (tmp_path / "BENCH_b.json").write_text("{bad")
    assert bench_compare.main(["--dir", str(tmp_path)]) == 0
    assert "fewer than two" in capsys.readouterr().out


def test_record_written_on_skip_paths(tmp_path, capsys):
    record = tmp_path / "record.json"
    assert bench_compare.main(["--dir", str(tmp_path), "--record", str(record)]) == 0
    assert json.loads(record.read_text())["skipped"]
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0}, workers=1)
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 1.0}, workers=4)
    assert bench_compare.main([str(base), str(cand), "--record", str(record)]) == 0
    assert "worker mismatch" in json.loads(record.read_text())["skipped"]


def test_snapshot_dir_archives_candidate_with_provenance(tmp_path):
    base = write_bench(tmp_path / "BENCH_a.json", {"pipeline": 1.0}, sha="aaa")
    cand = write_bench(tmp_path / "BENCH_b.json", {"pipeline": 1.05}, sha="bbb",
                       stamp="2026-03-01T00:00:00", workers=2)
    snapdir = tmp_path / "trajectory"
    assert bench_compare.main([
        str(base), str(cand), "--snapshot-dir", str(snapdir), "--label", "ci-test",
    ]) == 0
    (archived,) = list(snapdir.glob("BENCH_*.json"))
    assert archived.name == "BENCH_b.json"  # keeps the content-hash name
    doc = json.loads(archived.read_text())
    assert doc["record"] == {
        "label": "ci-test",
        "source": str(cand),
        "git_sha": "bbb",
        "timestamp": "2026-03-01T00:00:00",
        "workers": 2,
    }


def test_snapshot_name_collision_gets_content_suffix(tmp_path):
    snapdir = tmp_path / "trajectory"
    for i, wall in enumerate((1.0, 2.0)):
        cand = write_bench(tmp_path / "BENCH_same.json", {"pipeline": wall})
        assert bench_compare.main([
            str(cand), "--snapshot-dir", str(snapdir),
        ]) == 0
    names = sorted(p.name for p in snapdir.glob("*.json"))
    assert len(names) == 2 and "BENCH_same.json" in names
    assert any(n.startswith("BENCH_same-") for n in names), names


def test_single_path_mode_still_archives(tmp_path, capsys):
    cand = write_bench(tmp_path / "BENCH_only.json", {"pipeline": 1.0})
    snapdir = tmp_path / "trajectory"
    assert bench_compare.main([str(cand), "", "--snapshot-dir", str(snapdir)]) == 0
    out = capsys.readouterr().out
    assert "no baseline" in out and "snapshot archived" in out
    assert list(snapdir.glob("BENCH_only.json"))


def test_reruns_compare_each_stage_at_its_median(tmp_path, capsys):
    """One slow run of three is noise: the candidate's stages are compared
    at their median over its runs, and a slowdown every run shares still
    fails."""
    base = write_bench(tmp_path / "BENCH_base.json", {"pipeline": 1.0, "matrix_reduce": 0.4})
    runs = [
        write_bench(tmp_path / f"BENCH_run{i}.json", {"pipeline": p, "matrix_reduce": r})
        for i, (p, r) in enumerate([(1.5, 0.41), (1.1, 0.6), (1.0, 0.39)])
    ]
    assert bench_compare.main([str(base), str(runs[0])]) == 1
    reruns = ["--rerun", str(runs[1]), "--rerun", str(runs[2])]
    record = tmp_path / "record.json"
    assert bench_compare.main([str(base), str(runs[0]), *reruns, "--record", str(record)]) == 0
    assert "median of 3 runs" in capsys.readouterr().out
    stages = {r["stage"]: r["cand_s"] for r in json.loads(record.read_text())["stages"]}
    assert stages == {"pipeline": 1.1, "matrix_reduce": 0.41}
    slow = [write_bench(tmp_path / f"BENCH_slow{i}.json", {"pipeline": 2.0 + i / 10}) for i in range(3)]
    assert bench_compare.main([str(base), str(slow[0]), "--rerun", str(slow[1]), "--rerun", str(slow[2])]) == 1


def test_unreadable_rerun_is_left_out_and_snapshot_holds_the_median(tmp_path, capsys):
    base = write_bench(tmp_path / "BENCH_base.json", {"pipeline": 1.0})
    first = write_bench(tmp_path / "BENCH_first.json", {"pipeline": 1.1})
    second = write_bench(tmp_path / "BENCH_second.json", {"pipeline": 1.3})
    args = [str(base), str(first), "--rerun", str(second), "--rerun", str(tmp_path / "BENCH_gone.json")]
    assert bench_compare.main(args + ["--snapshot-dir", str(tmp_path / "snap")]) == 0
    assert "cannot read" in capsys.readouterr().out
    doc = json.loads((tmp_path / "snap" / first.name).read_text())
    assert doc["median_of"] == 2 and doc["profile"]["stages"][0]["wall_s"] == 1.2
