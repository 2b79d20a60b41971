#!/usr/bin/env python
"""Regenerate the golden communication-matrix fixtures.

Usage::

    PYTHONPATH=src python scripts/gen_golden.py [--out tests/golden]

Writes one JSON fixture per (app, nranks) pair covering every app in the
suite at tiny scales (8 and 16 ranks). The fixtures pin the paper-facing
numbers — full byte/message matrices, totals, topology degree — so a
synthesizer refactor that changes any of them fails
``tests/test_golden_matrices.py`` instead of silently shifting results.

Only rerun this when a change to the synthesizers is *intended* to change
the communication structure; commit the diff together with the change.

The matrices are stored as dense ``nranks x nranks`` lists, scattered
from the communication matrix's edge columns; at 8 and 16 ranks that is
the most readable diff. ``tests/test_golden_matrices.py`` also checks
that :func:`build_fixture` reproduces every committed file byte for byte.

The fixtures pin synthesizer output (matrices, totals, topology), not
matcher internals — the interconnect evaluations derived from them are
pinned separately by the differential suite, so a matcher change never
calls for regeneration. ``tests/test_golden_matrices.py`` checks both
the batch generators and the per-record reference generators in
``tests/oracles.py`` against these fixtures, and
``tests/test_matcher_differential.py`` checks on every run that the
matcher reproduces the reference matcher's circuit assignments
byte-for-byte on all of them.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from hfast.apps import available_apps, synthesize
from hfast.matrix import reduce_matrix
from hfast.timing import DEFAULT_TIMING_SEED, TimingModel
from hfast.topology import analyze_topology

GOLDEN_SCALES = (8, 16)


def dense_rows(nranks: int, src, dst, values) -> list[list[int]]:
    """An ``nranks x nranks`` list of lists holding ``values`` at
    ``(src, dst)`` and 0 elsewhere: how the fixtures spell the matrix."""
    rows = [[0] * nranks for _ in range(nranks)]
    for s, d, v in zip(src.tolist(), dst.tolist(), values.tolist()):
        rows[s][d] = v
    return rows


def build_fixture(app: str, nranks: int) -> dict:
    trace = synthesize(app, nranks, timing_seed=DEFAULT_TIMING_SEED)
    batch = trace.ensure_batch()
    cm = reduce_matrix(batch, nranks)
    topo = analyze_topology(cm)
    comm_time_s = float(np.sum(batch.total_time))
    compute_time_s = TimingModel(app, nranks, seed=DEFAULT_TIMING_SEED).compute_time(None)
    comm_per_rank = comm_time_s / nranks
    pct_comm = 100.0 * comm_per_rank / (comm_per_rank + compute_time_s)
    return {
        "app": app,
        "nranks": nranks,
        "call_totals": batch.call_totals,
        "total_bytes": cm.total_bytes,
        "total_messages": cm.total_messages,
        "max_degree": topo.max_degree,
        "bytes_matrix": dense_rows(nranks, cm.src, cm.dst, cm.bytes),
        "msg_matrix": dense_rows(nranks, cm.src, cm.dst, cm.msgs),
        "timing_seed": DEFAULT_TIMING_SEED,
        "comm_time_s": comm_time_s,
        "pct_comm": round(pct_comm, 3),
    }


def fixture_text(app: str, nranks: int) -> str:
    """The committed file content for one fixture."""
    return json.dumps(build_fixture(app, nranks), indent=1, sort_keys=True) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tests/golden", help="fixture directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for app in available_apps():
        for nranks in GOLDEN_SCALES:
            path = out / f"{app}_p{nranks}.json"
            path.write_text(fixture_text(app, nranks), encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
