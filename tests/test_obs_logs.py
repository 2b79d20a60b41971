"""Structured logging: rotation, correlation binding, tolerant reading.

Contracts under test:

- :class:`RotatingJsonlWriter` rolls over *between* records — no record
  is ever split across files — and caps the chain at ``max_files``;
- :meth:`StructuredLogger.bind` children carry correlation fields into
  every record; the ambient ``configure_logging``/``get_logger`` pair is
  a strict no-op until configured;
- :func:`read_log_records` stitches the rotation chain oldest-first and
  survives a crash-truncated final line.
"""

import json

import pytest

from hfast.obs.logs import (
    DISABLED_LOGGER,
    RotatingJsonlWriter,
    StructuredLogger,
    configure_logging,
    get_logger,
    read_log_records,
    reset_logging,
    rotate_siblings,
    rotated_paths,
)


@pytest.fixture(autouse=True)
def _clean_ambient():
    reset_logging()
    yield
    reset_logging()


def record_bytes(writer_path, **fields):
    return len((json.dumps(fields) + "\n").encode("utf-8"))


def test_rotation_never_splits_a_record(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = RotatingJsonlWriter(path, max_bytes=200, max_files=40)
    log = StructuredLogger(writer)
    for i in range(30):
        log.info("tick", i=i, pad="x" * 40)
    log.close()

    parts = rotated_paths(path)
    assert len(parts) > 1, "expected at least one rollover"
    seen = []
    for part in parts:
        for line in open(part, encoding="utf-8"):
            rec = json.loads(line)  # every line is complete JSON
            seen.append(rec["i"])
    assert seen == sorted(seen), "chain must read back oldest-first in order"
    assert seen == list(range(30))


def test_rotation_caps_file_count_and_drops_oldest(tmp_path):
    path = tmp_path / "log.jsonl"
    writer = RotatingJsonlWriter(path, max_bytes=80, max_files=3)
    log = StructuredLogger(writer)
    for i in range(50):
        log.info("tick", i=i)
    log.close()

    parts = rotated_paths(path)
    # max_files rotated siblings plus the live file.
    assert len(parts) <= 4
    records = read_log_records(path)
    # The newest records survive; the oldest fell off the chain.
    assert records[-1]["i"] == 49
    assert records[0]["i"] > 0


def test_rotate_siblings_shift_order(tmp_path):
    path = tmp_path / "s.jsonl"
    for gen in ("old", "mid", "new"):
        path.write_text(gen, encoding="utf-8")
        rotate_siblings(path, max_files=3)
    assert (tmp_path / "s.jsonl.1").read_text(encoding="utf-8") == "new"
    assert (tmp_path / "s.jsonl.2").read_text(encoding="utf-8") == "mid"
    assert not path.exists()


def test_bound_fields_reach_every_record_and_none_is_dropped(tmp_path):
    path = tmp_path / "log.jsonl"
    configure_logging(path, run_id="r-123")
    child = get_logger(component="sched", cell=None)
    child.warning("cell_retry", attempt=2)
    reset_logging()

    (rec,) = read_log_records(path)
    assert rec["run_id"] == "r-123"
    assert rec["component"] == "sched"
    assert rec["level"] == "warning" and rec["event"] == "cell_retry"
    assert rec["attempt"] == 2
    assert "cell" not in rec  # None-valued bindings are dropped


def test_ambient_logger_is_noop_until_configured(tmp_path):
    log = get_logger(component="sched")
    assert log is DISABLED_LOGGER and not log.enabled
    log.error("never_lands")  # must not raise, must not create files
    assert list(tmp_path.iterdir()) == []

    configure_logging(tmp_path / "log.jsonl")
    assert get_logger().enabled
    reset_logging()
    assert get_logger() is DISABLED_LOGGER


def test_reader_tolerates_crash_truncated_final_line(tmp_path):
    path = tmp_path / "log.jsonl"
    configure_logging(path)
    get_logger().info("a", i=1)
    get_logger().info("b", i=2)
    reset_logging()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ts": 1.0, "level": "info", "event": "torn", "i":')  # crash mid-record

    records = read_log_records(path)
    assert [r["event"] for r in records] == ["a", "b"]
    with pytest.raises(ValueError, match="malformed"):
        read_log_records(path, strict=True)


def test_reader_level_filter(tmp_path):
    path = tmp_path / "log.jsonl"
    configure_logging(path)
    get_logger().info("fine")
    get_logger().error("broken")
    reset_logging()
    assert [r["event"] for r in read_log_records(path, level="error")] == ["broken"]
