"""Machine-speed probe: fixed work owned by this benchmark, never the program's.

On a shared VM the processor itself slows when other tenants load the
host (steal time stays near zero, so CPU time grows with wall time), by
up to 1.5x for minutes at a time. A run of one workload cannot average
that out. The harness times this probe right before every repetition and
scales the repetition's times by ``REF_S / probe_s``: the time the
repetition would have taken on a machine where the probe takes ``REF_S``.

The probe mixes what the pipeline spends its time on: JSON encoding and
decoding, dict updates and sorts in Python, and sorts, unique counts and
weighted bincounts over NumPy arrays. It imports nothing from ``hfast``,
so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Probe time that the scaled metrics are expressed at: about its median on
#: a 2-vCPU Xeon VM (2.1 GHz, Python 3.11, numpy 2.4).
REF_S = 0.16


class Probe:
    """Inputs built once from a fixed seed; each call times the same work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.ints = rng.integers(0, 1 << 20, 200_000)
        self.floats = rng.random(200_000)
        self.docs = [
            {"src": int(i), "dst": int(i * 7 % 1000), "bytes": float(f)}
            for i, f in zip(self.ints[:20_000], self.floats)
        ]
        self()  # first-call costs stay out of the timed calls

    def __call__(self) -> float:
        t0 = time.perf_counter()
        json.loads(json.dumps(self.docs))
        volume: dict[int, float] = {}
        for doc in self.docs:
            volume[doc["dst"]] = volume.get(doc["dst"], 0.0) + doc["bytes"]
        sorted(volume.items(), key=lambda kv: kv[1])
        for _ in range(3):
            order = np.argsort(self.ints, kind="stable")
            np.unique(self.ints[order] >> 4, return_counts=True)
            np.bincount(self.ints & 4095, weights=self.floats)
            np.cumsum(self.floats[order])
        return time.perf_counter() - t0
