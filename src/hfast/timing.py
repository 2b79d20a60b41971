"""Deterministic LogGP-style per-record timing synthesis.

Cached traces synthesized before this module existed carry
``total_time = 0.0`` everywhere, which left the paper-facing %comm and
per-call latency columns dead. This module fills them in with a LogGP
model (latency ``L``, per-call overhead ``o``, per-message gap ``g``,
per-byte gap ``G``) plus per-call-type overhead factors and seeded,
fully deterministic jitter:

- the mean per-call time is ``o * f(call) + (L + g + size * G) * stages``
  where ``stages`` is ``ceil(log2(nranks))`` for collectives (a log-tree
  schedule) and 1 otherwise;
- jitter multiplies the mean by a factor drawn from a splitmix64 hash of
  ``(seed, rank, peer, call)`` — *never* of ``size``, so synthesized
  times are monotone nondecreasing in message size at a fixed call type;
- with ``count > 1`` repeats, ``min_time``/``max_time`` spread around the
  mean using two more hash streams; with ``count == 1`` they equal it.

:meth:`TimingModel.time_batch` times a whole :class:`RecordBatch` at
once, whether the batch was just synthesized or loaded from a cache
entry. The differential tests keep a scalar record-by-record evaluation
of the same IEEE-754 double expressions and require bit-identical times
from both.

Every model uses the built-in ``APP_PARAMS`` unless its caller passes
params explicitly. It is the one parameter table: each app's
``compute_step_s`` is the closed-form fit of the paper's %comm at 64 and
256 ranks over synthesized traffic, and ``tests/test_pct_comm.py``
recomputes that fit and requires the table to equal it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from hfast.records import (
    COLLECTIVE_CALLS,
    COMPLETION_CALLS,
    PTP_CALLS,
    RecordBatch,
    Trace,
)

TIMING_MODEL = "loggp"
DEFAULT_TIMING_SEED = 0

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
# Distinct hash streams for the min/max spread around the mean.
_STREAM_MIN = 0xA5A5A5A5A5A5A5A5
_STREAM_MAX = 0x5A5A5A5A5A5A5A5A
_INV_2_53 = 2.0**-53


def mix64(x: int) -> int:
    """splitmix64 finalizer over Python ints (mod 2^64)."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
    return x ^ (x >> 31)


def mix64_vec(x: np.ndarray) -> np.ndarray:
    """splitmix64 over uint64 arrays; bit-identical to :func:`mix64`."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(_SPLITMIX_GAMMA)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_2)
        return x ^ (x >> np.uint64(31))


# Stable small integer per MPI call, the call's part of the jitter key.
# Unknown calls collapse onto one reserved id — they still get
# deterministic jitter, just a shared stream.
_CALL_IDS: dict[str, int] = {
    name: i
    for i, name in enumerate(sorted(PTP_CALLS | COLLECTIVE_CALLS | COMPLETION_CALLS))
}
_UNKNOWN_CALL_ID = 63

# Per-call CPU overhead factors (multiples of the app's ``o``): eager
# sends are cheaper than rendezvous, completions cheaper than posts,
# collectives carry algorithmic setup on top of their log-tree stages.
_CALL_OVERHEAD: dict[str, float] = {
    "MPI_Send": 1.2,
    "MPI_Isend": 1.0,
    "MPI_Ssend": 1.6,
    "MPI_Sendrecv": 2.0,
    "MPI_Recv": 1.1,
    "MPI_Irecv": 0.9,
    "MPI_Wait": 0.5,
    "MPI_Waitall": 0.8,
    "MPI_Waitany": 0.6,
    "MPI_Test": 0.3,
    "MPI_Allreduce": 2.0,
    "MPI_Reduce": 1.5,
    "MPI_Bcast": 1.2,
    "MPI_Alltoall": 2.5,
    "MPI_Alltoallv": 2.6,
    "MPI_Allgather": 2.2,
    "MPI_Gather": 1.4,
    "MPI_Scatter": 1.4,
    "MPI_Barrier": 1.0,
}
_DEFAULT_OVERHEAD = 1.0


@dataclass(frozen=True)
class LogGPParams:
    """LogGP fabric parameters plus the jitter/compute knobs."""

    L: float = 5.0e-6  # wire latency (s)
    o: float = 1.5e-6  # per-call CPU overhead (s), scaled by the call factor
    g: float = 2.5e-6  # per-message gap (s)
    G: float = 1.0e-9  # per-byte gap (s/B); 1e-9 ~ 1 GB/s links
    jitter: float = 0.2  # relative jitter amplitude, must stay < 1
    compute_step_s: float = 0.05  # per-iteration compute time driving %comm

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


# Per-app parameter flavors mirroring the SC'05 measurements: cactus is
# bandwidth-bound on fat ghost zones, gtc is compute-dominated (low
# %comm), lbmhd sits in between, paratec's all-to-all is latency- and
# message-rate-bound. ``compute_step_s`` is fitted to the paper's %comm
# at 64 and 256 ranks (timing seed 0); the wire parameters are not, so
# refitting moves no per-record time and stored entries stay valid.
APP_PARAMS: dict[str, LogGPParams] = {
    "cactus": LogGPParams(L=5.0e-6, o=1.5e-6, g=2.5e-6, G=0.8e-9,
                          compute_step_s=0.01810632717520992),
    "gtc": LogGPParams(L=5.0e-6, o=1.5e-6, g=2.5e-6, G=1.0e-9,
                       compute_step_s=0.012466401732192881),
    "lbmhd": LogGPParams(L=5.0e-6, o=1.5e-6, g=2.5e-6, G=1.0e-9,
                         compute_step_s=0.005775648545975743),
    "paratec": LogGPParams(L=8.0e-6, o=2.0e-6, g=4.0e-6, G=1.2e-9,
                           compute_step_s=0.010576877906145261),
}

# (overrides key, default) controlling each app's iteration count; the
# compute-time side of the %comm estimate scales with it.
_STEP_KNOBS: dict[str, tuple[str, int]] = {
    "cactus": ("steps", 12),
    "gtc": ("steps", 10),
    "lbmhd": ("steps", 8),
    "paratec": ("fft_cycles", 3),
}


def _app_tag(app: str) -> int:
    tag = 0
    for ch in app.encode("utf-8"):
        tag = (tag * 131 + ch) & _MASK64
    return tag


class TimingModel:
    """Deterministic LogGP timing for one (app, nranks, seed) triple."""

    def __init__(
        self,
        app: str,
        nranks: int,
        seed: int = DEFAULT_TIMING_SEED,
        params: LogGPParams | None = None,
    ):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.app = app
        self.nranks = int(nranks)
        self.seed = int(seed)
        self.params = params if params is not None else APP_PARAMS.get(app, LogGPParams())
        if not 0.0 <= self.params.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.params.jitter}")
        self._seed_base = mix64((self.seed & _MASK64) ^ _app_tag(app))
        # Log-tree collective schedule depth.
        self._stages = float(max(1, math.ceil(math.log2(self.nranks)))) if self.nranks > 1 else 1.0

    def time_batch(self, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar (total, min, max) arrays: one value per record."""
        p = self.params
        n = len(batch)
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy(), empty.copy()
        over = np.array(
            [p.o * _CALL_OVERHEAD.get(c, _DEFAULT_OVERHEAD) for c in batch.calls],
            dtype=np.float64,
        )
        stages = np.array(
            [self._stages if c in COLLECTIVE_CALLS else 1.0 for c in batch.calls],
            dtype=np.float64,
        )
        call_ids = np.array(
            [_CALL_IDS.get(c, _UNKNOWN_CALL_ID) for c in batch.calls], dtype=np.uint64
        )
        code = batch.call_code.astype(np.int64)
        wire = (p.L + p.g) + batch.size.astype(np.float64) * p.G
        base = over[code] + wire * stages[code]

        key = (
            ((batch.rank.astype(np.uint64) & np.uint64(0xFFFFFFF)) << np.uint64(28))
            ^ ((batch.peer.astype(np.uint64) & np.uint64(0xFFFFF)) << np.uint64(8))
            ^ call_ids[code]
        )
        h = mix64_vec(np.uint64(self._seed_base) ^ key)
        u = (h >> np.uint64(11)).astype(np.float64) * _INV_2_53
        mean = base * (1.0 + p.jitter * (2.0 * u - 1.0))
        count = batch.count.astype(np.float64)
        total = mean * count

        umin = (mix64_vec(h ^ np.uint64(_STREAM_MIN)) >> np.uint64(11)).astype(
            np.float64
        ) * _INV_2_53
        umax = (mix64_vec(h ^ np.uint64(_STREAM_MAX)) >> np.uint64(11)).astype(
            np.float64
        ) * _INV_2_53
        repeated = batch.count > 1
        tmin = np.where(repeated, mean * (1.0 - 0.5 * p.jitter * umin), mean)
        tmax = np.where(repeated, mean * (1.0 + 0.5 * p.jitter * umax), mean)
        return total, tmin, tmax

    def compute_time(self, overrides: dict[str, Any] | None = None) -> float:
        """Per-rank compute seconds, the denominator side of %comm."""
        key, default = _STEP_KNOBS.get(self.app, ("steps", 10))
        steps = int((overrides or {}).get(key, default))
        return self.params.compute_step_s * float(max(1, steps))

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": TIMING_MODEL,
            "seed": self.seed,
            "params": self.params.to_dict(),
        }


def apply_timing(
    trace: Trace,
    seed: int = DEFAULT_TIMING_SEED,
    params: LogGPParams | None = None,
) -> Trace:
    """Synthesize timing onto a trace's batch in place (idempotent per
    seed), and stamp ``trace.timing`` with the model descriptor so cache
    entries record how their times were produced."""
    model = TimingModel(trace.app, trace.nranks, seed=seed, params=params)
    trace.batch.set_times(*model.time_batch(trace.batch))
    trace.timing = model.to_dict()
    return trace
