"""Synthetic trace generators for the paper's application suite.

Each generator is deterministic in (app, nranks, overrides) and emits
aggregated IPM-style records mirroring the communication structure the
SC'05 study measured:

- ``cactus``  — 3D regular-grid ghost-zone exchange (nearest neighbours,
  non-blocking send/recv + waits, periodic 8-byte allreduce).
- ``gtc``     — particle-in-cell toroidal shift: each rank exchanges
  particles with its two poloidal neighbours, plus field allreduces.
- ``lbmhd``   — lattice Boltzmann MHD: skewed 2D neighbour exchange with
  a wider stencil (interpenetrating lattices).
- ``paratec`` — 3D FFT transpose: dense personalized all-to-all via
  non-blocking point-to-point, the paper's worst case for degree.

Each app registers one generator that builds record fields as numpy
columns (a :class:`~hfast.records.RecordBatch`) — paratec's all-to-all
comes from a rank-pair grid instead of an O(nranks^2) Python loop — which
is what makes 1K–4K-rank synthesis feasible. The per-record reference
generators live in ``tests/oracles.py``; the invariant and golden suites
assert both produce byte-identical cache documents.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from hfast.obs.profile import profiled
from hfast.records import RecordBatch, Trace
from hfast.timing import DEFAULT_TIMING_SEED, apply_timing

GeneratorFn = Callable[[int, dict[str, Any]], RecordBatch]

APPS: dict[str, "AppSpec"] = {}


class AppSpec:
    def __init__(self, name: str, generator: GeneratorFn, description: str):
        self.name = name
        self.generator = generator
        self.description = description


def register(name: str, description: str) -> Callable[[GeneratorFn], GeneratorFn]:
    def deco(fn: GeneratorFn) -> GeneratorFn:
        APPS[name] = AppSpec(name, fn, description)
        return fn

    return deco


def available_apps() -> list[str]:
    return sorted(APPS)


@profiled("trace_synthesis")
def synthesize(
    app: str,
    nranks: int,
    overrides: dict[str, Any] | None = None,
    timing_seed: int | None = DEFAULT_TIMING_SEED,
) -> Trace:
    """Generate the aggregated trace for one app at one scale.

    Unless ``timing_seed`` is None, the LogGP timing model synthesizes
    ``total_time``/``min_time``/``max_time`` onto the aggregated records;
    the result is deterministic in (app, nranks, overrides, seed).
    """
    if app not in APPS:
        raise KeyError(f"unknown app '{app}' (available: {', '.join(available_apps())})")
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    overrides = dict(overrides or {})
    batch = APPS[app].generator(nranks, overrides).aggregate()
    trace = Trace(app=app, nranks=nranks, batch=batch, overrides=overrides)
    if timing_seed is not None:
        apply_timing(trace, seed=timing_seed)
    return trace


def _factor3(n: int) -> tuple[int, int, int]:
    """Near-cubic 3D process grid for n ranks."""
    best = (n, 1, 1)
    best_score = float("inf")
    for x in range(1, int(round(n ** (1 / 3))) + 2):
        if n % x:
            continue
        rem = n // x
        for y in range(x, int(math.isqrt(rem)) + 1):
            if rem % y:
                continue
            z = rem // y
            score = (z - x) + (z - y)
            if score < best_score:
                best_score = score
                best = (x, y, z)
    return best


def _factor2(n: int) -> tuple[int, int]:
    x = int(math.isqrt(n))
    while n % x:
        x -= 1
    return (x, n // x)


def _ghost_pairs_vec(nranks: int, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, peers) arrays of a periodic Cartesian grid's neighbour
    pairs, both directions: per axis with extent > 1, every rank's -1 and
    +1 neighbour, self-pairs dropped."""
    ndim = len(dims)
    strides = [1] * ndim
    for i in range(ndim - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    r = np.arange(nranks, dtype=np.int64)
    coords = [(r // strides[i]) % dims[i] for i in range(ndim)]
    ranks_out: list[np.ndarray] = []
    peers_out: list[np.ndarray] = []
    for axis in range(ndim):
        if dims[axis] == 1:
            continue
        for step in (-1, 1):
            shifted = (coords[axis] + step) % dims[axis]
            peer = r + (shifted - coords[axis]) * strides[axis]
            keep = peer != r
            ranks_out.append(r[keep])
            peers_out.append(peer[keep])
    if not ranks_out:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(ranks_out), np.concatenate(peers_out)


@register("cactus", "3D grid ghost-zone exchange (Einstein-equation solver)")
def _vec_cactus(nranks: int, ov: dict[str, Any]) -> RecordBatch:
    steps = int(ov.get("steps", 12))
    ghost_bytes = int(ov.get("ghost_bytes", 294912))
    ranks, peers = _ghost_pairs_vec(nranks, _factor3(nranks))
    every = np.arange(nranks, dtype=np.int64)
    parts = [
        ("MPI_Isend", ranks, ghost_bytes, peers, steps),
        ("MPI_Irecv", ranks, ghost_bytes, peers, steps),
        ("MPI_Wait", ranks, 0, ranks, steps),
        ("MPI_Waitall", every, 0, every, max(1, steps // 2)),
    ]
    if steps >= 6:
        parts.append(("MPI_Allreduce", every, 8, 0, max(1, steps // 12)))
    return RecordBatch.from_parts(parts)


@register("gtc", "gyrokinetic toroidal particle-in-cell (1D shift)")
def _vec_gtc(nranks: int, ov: dict[str, Any]) -> RecordBatch:
    steps = int(ov.get("steps", 10))
    particle_bytes = int(ov.get("particle_bytes", 524288))
    r = np.arange(nranks, dtype=np.int64)
    up = (r + 1) % nranks
    down = (r - 1) % nranks
    m = up != r
    return RecordBatch.from_parts(
        [
            ("MPI_Isend", r[m], particle_bytes, up[m], steps),
            ("MPI_Irecv", r[m], particle_bytes, down[m], steps),
            ("MPI_Wait", r[m], 0, r[m], 2 * steps),
            ("MPI_Allreduce", r, 4096, 0, max(1, steps // 2)),
        ]
    )


# Interpenetrating-lattice streaming: the four axis neighbours, then the
# skewed diagonals — the structure behind lbmhd's degree ~12 in the paper.
_LBMHD_OFFSETS = np.array(
    [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)],
    dtype=np.int64,
)


@register("lbmhd", "lattice Boltzmann magnetohydrodynamics (skewed 2D stencil)")
def _vec_lbmhd(nranks: int, ov: dict[str, Any]) -> RecordBatch:
    steps = int(ov.get("steps", 8))
    lattice_bytes = int(ov.get("lattice_bytes", 131072))
    px, py = _factor2(nranks)
    r = np.arange(nranks, dtype=np.int64)
    ix, iy = r // py, r % py
    # peers[rank, j]: the j-th offset's target.
    peers = ((ix[:, None] + _LBMHD_OFFSETS[:, 0]) % px) * py + (
        (iy[:, None] + _LBMHD_OFFSETS[:, 1]) % py
    )
    keep = peers != r[:, None]
    # Order-preserving dedup: drop offset j if an earlier offset k hit the
    # same peer (small grids alias diagonals onto axis neighbours).
    noffsets = peers.shape[1]
    for j in range(1, noffsets):
        for k in range(j):
            keep[:, j] &= peers[:, j] != peers[:, k]
    # Payload class follows the offset that produced the surviving pair,
    # not the peer's position in the dedup order: the first four (axis)
    # offsets move a full lattice, diagonals a quarter — symmetric under
    # (dx, dy) -> (-dx, -dy), so send and recv sizes always agree, and
    # bytes are conserved on non-square grids.
    size = np.where(np.arange(noffsets) < 4, lattice_bytes, lattice_bytes // 4)
    size = np.broadcast_to(size, peers.shape)
    ranks_rep = np.broadcast_to(r[:, None], peers.shape)[keep]
    peers_flat = peers[keep]
    sizes_flat = size[keep]
    return RecordBatch.from_parts(
        [
            ("MPI_Isend", ranks_rep, sizes_flat, peers_flat, steps),
            ("MPI_Irecv", ranks_rep, sizes_flat, peers_flat, steps),
            ("MPI_Waitall", r, 0, r, steps),
            ("MPI_Allreduce", r, 64, 0, max(1, steps // 4)),
        ]
    )


@register("paratec", "plane-wave DFT with 3D FFT transpose (all-to-all)")
def _vec_paratec(nranks: int, ov: dict[str, Any]) -> RecordBatch:
    fft_cycles = int(ov.get("fft_cycles", 3))
    grid_bytes = int(ov.get("grid_bytes", 16384))
    n = nranks
    every = np.arange(n, dtype=np.int32)
    # Rank-pair grid: row i holds i's peers 0..n-1 minus the diagonal, in
    # ascending order (j, plus one once j reaches i) — every ordered pair
    # without an n x n mask or a modulo over n^2 elements.
    ranks = np.repeat(every, max(0, n - 1))
    base = np.arange(n - 1, dtype=np.int32)
    peers = (base[None, :] + (base[None, :] >= every[:, None])).ravel()
    return RecordBatch.from_parts(
        [
            ("MPI_Isend", ranks, grid_bytes, peers, fft_cycles),
            ("MPI_Irecv", ranks, grid_bytes, peers, fft_cycles),
            ("MPI_Waitall", every, 0, every, 2 * fft_cycles),
            ("MPI_Allreduce", every, 8, 0, fft_cycles),
        ]
    )
