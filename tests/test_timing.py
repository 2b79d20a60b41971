"""LogGP timing-model unit and invariant tests.

The contract the rest of the pipeline leans on:

- synthesized times are strictly positive and finite;
- at a fixed (rank, peer, call), time is monotone nondecreasing in
  message size (jitter never keys on size);
- a record with ``count == 1`` has ``min_time == max_time == total_time``;
  with repeats the spread brackets the mean;
- ``TimingModel.time_batch`` and the record-by-record reference in
  ``tests/oracles.py`` produce bit-identical float64 values, so the
  per-call properties here, checked on the reference, hold for batches;
- everything is a pure function of (app, nranks, seed) — same seed, same
  times; different seed, different jitter.
"""

import math

import numpy as np
import pytest

import oracles
from hfast.apps import available_apps, synthesize
from hfast.records import COLLECTIVE_CALLS
from hfast.timing import (
    APP_PARAMS,
    LogGPParams,
    TimingModel,
    apply_timing,
    mix64,
    mix64_vec,
)

ALL_APPS = ("cactus", "gtc", "lbmhd", "paratec")


def test_mix64_scalar_vector_parity():
    xs = [0, 1, 2**31, 2**63, 2**64 - 1, 0xDEADBEEF, 12345678901234567890 % 2**64]
    vec = mix64_vec(np.array(xs, dtype=np.uint64))
    assert [mix64(x) for x in xs] == [int(v) for v in vec]


def test_mix64_is_a_bijection_sample():
    seen = {mix64(x) for x in range(4096)}
    assert len(seen) == 4096


@pytest.mark.parametrize("app", ALL_APPS)
def test_times_strictly_positive(app):
    trace = synthesize(app, 16)
    b = trace.ensure_batch()
    assert b.has_times
    for col in (b.total_time, b.min_time, b.max_time):
        assert np.all(np.isfinite(col))
        assert np.all(col > 0.0)
    assert np.all(b.min_time <= b.max_time)
    # total over count repeats can't fall below count * min or above count * max
    count = b.count.astype(np.float64)
    assert np.all(b.total_time >= b.min_time * count * (1 - 1e-12))
    assert np.all(b.total_time <= b.max_time * count * (1 + 1e-12))


@pytest.mark.parametrize("app", ALL_APPS)
def test_monotone_in_message_size(app):
    """At a fixed (rank, peer, call), mean time never decreases with size."""
    model = TimingModel(app, 64)
    for call in ("MPI_Isend", "MPI_Irecv", "MPI_Allreduce", "MPI_Alltoall"):
        for rank, peer in ((0, 1), (7, 63), (33, 12)):
            times = [
                oracles.mean_call_time(model, call, size, rank, peer)
                for size in (0, 1, 64, 4096, 65536, 2**20, 2**24)
            ]
            assert times == sorted(times), f"{call} r{rank}->p{peer}: {times}"


def test_count_one_collapses_min_max():
    model = TimingModel("cactus", 8)
    total, tmin, tmax = oracles.time_record(model, oracles.CommRecord(0, "MPI_Isend", 4096, 1))
    assert total == tmin == tmax
    total, tmin, tmax = oracles.time_record(
        model, oracles.CommRecord(0, "MPI_Isend", 4096, 1, count=10)
    )
    assert tmin < total / 10 < tmax
    assert tmin > 0.0


def test_jitter_bounds_respected():
    p = APP_PARAMS["cactus"]
    model = TimingModel("cactus", 16)
    base_model = TimingModel("cactus", 16, params=LogGPParams(**{**p.to_dict(), "jitter": 0.0}))
    for rank in range(16):
        jittered = oracles.mean_call_time(model, "MPI_Isend", 1024, rank, (rank + 1) % 16)
        base = oracles.mean_call_time(base_model, "MPI_Isend", 1024, rank, (rank + 1) % 16)
        assert base * (1 - p.jitter) <= jittered <= base * (1 + p.jitter)


def test_zero_jitter_is_exact_loggp():
    params = LogGPParams(L=5e-6, o=1e-6, g=2e-6, G=1e-9, jitter=0.0)
    model = TimingModel("cactus", 2, params=params)
    expected = 1e-6 * 1.0 + (5e-6 + 2e-6) + 4096 * 1e-9  # o*f(Isend) + L + g + size*G
    assert oracles.mean_call_time(model, "MPI_Isend", 4096, 0, 1) == pytest.approx(expected)


def test_collectives_scale_with_log_tree_stages():
    params = LogGPParams(jitter=0.0)
    small = TimingModel("gtc", 2, params=params)
    large = TimingModel("gtc", 64, params=params)
    for call in COLLECTIVE_CALLS:
        assert oracles.mean_call_time(large, call, 1024, 0, 0) > oracles.mean_call_time(
            small, call, 1024, 0, 0
        )
    # ptp calls are stage-independent
    assert oracles.mean_call_time(large, "MPI_Isend", 1024, 0, 1) == oracles.mean_call_time(
        small, "MPI_Isend", 1024, 0, 1
    )


def test_scalar_vector_batch_parity():
    """time_batch and the reference's time_record agree bit-for-bit on
    every record."""
    for app in ALL_APPS:
        batch = oracles.synthesize(app, 16, timing_seed=None).batch
        model = TimingModel(app, 16, seed=3)
        total, tmin, tmax = model.time_batch(batch)
        for i, rec in enumerate(oracles.to_records(batch)):
            st, sn, sx = oracles.time_record(model, rec)
            assert st == total[i] and sn == tmin[i] and sx == tmax[i]


def test_same_seed_reproduces_different_seed_diverges():
    a = synthesize("lbmhd", 8, timing_seed=7).ensure_batch()
    b = synthesize("lbmhd", 8, timing_seed=7).ensure_batch()
    c = synthesize("lbmhd", 8, timing_seed=8).ensure_batch()
    assert np.array_equal(a.total_time, b.total_time)
    assert not np.array_equal(a.total_time, c.total_time)


def test_apps_have_distinct_jitter_streams():
    ca = TimingModel("cactus", 16, params=LogGPParams())
    lb = TimingModel("lbmhd", 16, params=LogGPParams())
    assert oracles.mean_call_time(ca, "MPI_Isend", 1024, 0, 1) != oracles.mean_call_time(
        lb, "MPI_Isend", 1024, 0, 1
    )


def test_apply_timing_stamps_descriptor_and_is_idempotent():
    trace = synthesize("gtc", 8, timing_seed=None)
    assert trace.timing is None
    apply_timing(trace, seed=5)
    assert trace.timing["model"] == "loggp"
    assert trace.timing["seed"] == 5
    first = trace.ensure_batch().total_time.copy()
    apply_timing(trace, seed=5)
    assert np.array_equal(trace.ensure_batch().total_time, first)


def test_compute_time_scales_with_step_overrides():
    model = TimingModel("cactus", 8)
    assert model.compute_time({"steps": 24}) == pytest.approx(2 * model.compute_time({"steps": 12}))
    assert model.compute_time(None) == model.compute_time({})
    para = TimingModel("paratec", 8)
    assert para.compute_time({"fft_cycles": 6}) == pytest.approx(
        2 * para.compute_time({"fft_cycles": 3})
    )


def test_invalid_model_params_rejected():
    with pytest.raises(ValueError):
        TimingModel("cactus", 0)
    with pytest.raises(ValueError):
        TimingModel("cactus", 8, params=LogGPParams(jitter=1.5))


def test_every_app_has_params():
    assert set(available_apps()) <= set(APP_PARAMS)
    for p in APP_PARAMS.values():
        assert p.compute_step_s > 0 and 0 <= p.jitter < 1
        assert math.isfinite(p.L + p.o + p.g + p.G)
