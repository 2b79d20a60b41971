"""RunSpec is the one declared-input type.

Each field of :class:`~hfast.spec.RunSpec`, and each of
:class:`~hfast.spec.InterconnectConfig`'s, is changed one at a time from
a cactus@8 base. Every change must move the result key, the fingerprint
in the run journal, and the computed result: the result document with
its echo of the inputs removed (``overrides``, the interconnect config,
the temporal block's timesteps and reconfiguration cost, the timing
seed). An input that reached the cell without the key or the journal,
or the key without the cell (served overrides did), fails here. A new
field that changes nothing computed at this cell needs a named exemption
with its reason.
"""

import json
from dataclasses import fields, replace

import pytest

from hfast.pipeline import run_pipeline
from hfast.sched.journal import RunJournal
from hfast.spec import ExecOptions, InterconnectConfig, RunSpec, SpecError

BASE = RunSpec(cells=(("cactus", 8),))

#: One changed value per RunSpec field; ``config`` changes field by field.
SPEC_CHANGES = {
    "cells": (("cactus", 16),),
    "overrides": {"steps": 1, "ghost_bytes": 8},
    "timing_seed": 1,
}
CONFIG_CHANGES = {
    "circuits_per_node": 1,
    "circuit_bandwidth": 20e9,
    "packet_bandwidth": 2e9,
    "circuit_latency": 5e-6,
    "packet_latency": 50e-6,
    "timesteps": 2,
    "reconfig_cost": 0.5,
    "slice_seed": 1,
}
VARIANTS = {
    **{name: replace(BASE, **{name: value}) for name, value in SPEC_CHANGES.items()},
    **{
        f"config.{name}": replace(BASE, config=InterconnectConfig(**{name: value}))
        for name, value in CONFIG_CHANGES.items()
    },
}


def test_changes_cover_every_declared_input():
    assert set(SPEC_CHANGES) | {"config"} == {f.name for f in fields(RunSpec)}
    assert set(CONFIG_CHANGES) == {f.name for f in fields(InterconnectConfig)}
    assert len(CONFIG_CHANGES) == 8


def run_journaled(spec, tmp_path):
    """Run the spec's cell on the stealing scheduler; return the journal
    fingerprint and the computed part of the result."""
    ((app, nranks),) = spec.cells
    out = run_pipeline(
        apps=[app], scales={app: [nranks]}, overrides=spec.overrides,
        timing_seed=spec.timing_seed, config=spec.config,
        cache_dir=str(tmp_path / "cache"), store=False, argv=["test"],
        options=ExecOptions(scheduler="stealing", journal_dir=str(tmp_path / "journal"),
                            bench_dir=None),
    )
    run_id = out["manifest"]["scheduler"]["run_id"]
    fingerprint = RunJournal.load(tmp_path / "journal", run_id).fingerprint
    (result,) = out["results"]
    del result["overrides"], result["interconnect"]["config"], result["timing"]["seed"]
    del result["interconnect_temporal"]["timesteps"]
    del result["interconnect_temporal"]["reconfig_cost"]
    return fingerprint, json.dumps(result, sort_keys=True)


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    return run_journaled(BASE, tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("name", list(VARIANTS))
def test_each_input_moves_key_fingerprint_and_result(name, base_run, tmp_path):
    spec = VARIANTS[name]
    base_fingerprint, base_result = base_run
    fingerprint, result = run_journaled(spec, tmp_path)
    assert spec.key != BASE.key
    assert fingerprint != base_fingerprint
    assert result != base_result


def test_spec_errors_name_every_bad_field():
    with pytest.raises(SpecError) as err:
        RunSpec(cells=(("nonesuch", 0),), overrides={"x": [1]}, timing_seed=True)
    messages = " | ".join(err.value.errors)
    for field in ("app", "nranks", "overrides", "timing_seed"):
        assert field in messages
