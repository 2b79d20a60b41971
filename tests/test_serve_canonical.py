"""Canonicalization and content-addressing properties of served job specs.

A ``POST /v1/jobs`` body is one cell of a :class:`hfast.spec.RunSpec`,
read by :meth:`RunSpec.from_wire`. The service's cache correctness rests
on two properties of that reading:

1. submissions that describe the same analysis — reordered fields,
   defaults spelled out, ``1e-3`` vs ``0.001`` — land on the same sha256
   key, so they share one cached result;
2. submissions that differ in any output-affecting field never collide.

Both are pinned here with seeded sweeps (plus hypothesis sweeps when the
library is installed), alongside the validation-error table the 400
responses are built from.
"""

import json
from dataclasses import fields

import pytest

from hfast.cache import ReproCache, cache_key
from hfast.pipeline import run_pipeline
from hfast.spec import ExecOptions, InterconnectConfig, RunSpec, SpecError

MINIMAL = {"app": "cactus", "nranks": 8}


def test_minimal_spec_gets_all_defaults():
    spec = RunSpec.from_wire(MINIMAL)
    assert spec.cells == (("cactus", 8),)
    assert spec.config == InterconnectConfig()
    assert spec.config.timesteps == 4
    assert spec.overrides == {}


def test_key_is_full_sha256_hex():
    key = RunSpec.from_wire(MINIMAL).key
    assert len(key) == 64
    assert int(key, 16) >= 0


def test_field_order_does_not_change_key():
    a = RunSpec.from_wire({"app": "gtc", "nranks": 16, "timing_seed": 3, "timesteps": 2})
    b = RunSpec.from_wire({"timesteps": 2, "timing_seed": 3, "nranks": 16, "app": "gtc"})
    assert a == b
    assert a.key == b.key


def test_explicit_defaults_land_on_same_key():
    minimal = RunSpec.from_wire(MINIMAL)
    spelled = RunSpec.from_wire(minimal.to_wire())  # every field explicit
    assert spelled == minimal
    assert spelled.key == minimal.key


def test_float_spellings_of_same_value_share_key():
    a = RunSpec.from_wire({**MINIMAL, "reconfig_cost": 1e-3})
    b = RunSpec.from_wire({**MINIMAL, "reconfig_cost": 0.001})
    assert a.key == b.key


def test_int_valued_float_field_shares_key_with_int():
    a = RunSpec.from_wire({**MINIMAL, "circuit_bandwidth": 10_000_000_000})
    b = RunSpec.from_wire({**MINIMAL, "circuit_bandwidth": 10e9})
    assert a.key == b.key


def test_json_round_trip_of_payload_is_key_stable():
    spec = RunSpec.from_wire({**MINIMAL, "timesteps": 7, "overrides": {"x": 1.5}})
    wire = json.loads(json.dumps(spec.to_wire()))
    assert RunSpec.from_wire(wire).key == spec.key


def test_every_field_change_changes_key():
    """Perturbing any single field must move the spec to a new key."""
    base = RunSpec.from_wire(MINIMAL)
    perturbed = {
        "app": "gtc",
        "nranks": 16,
        "timing_seed": 99,
        "overrides": {"w": 2},
        "circuits_per_node": 5,
        "circuit_bandwidth": 11e9,
        "packet_bandwidth": 2e9,
        "circuit_latency": 2e-6,
        "packet_latency": 2e-5,
        "timesteps": 8,
        "reconfig_cost": 2e-3,
        "slice_seed": 1,
    }
    keys = {base.key}
    for name, value in perturbed.items():
        key = RunSpec.from_wire({**MINIMAL, name: value}).key
        assert key not in keys, f"perturbing {name} collided with a prior key"
        keys.add(key)


def test_seeded_sweep_distinct_specs_never_collide():
    import random

    rng = random.Random(20260808)
    seen: dict[str, tuple] = {}
    apps = ("cactus", "gtc", "lbmhd", "paratec")
    for _ in range(300):
        payload = {
            "app": rng.choice(apps),
            "nranks": rng.choice((4, 8, 16, 32)),
            "timing_seed": rng.randrange(4),
            "timesteps": rng.randrange(1, 5),
            "slice_seed": rng.randrange(3),
            "circuits_per_node": rng.randrange(1, 5),
        }
        spec = RunSpec.from_wire(payload)
        ident = tuple(sorted(spec.config.to_dict().items())) + (
            spec.cells, spec.timing_seed, tuple(spec.overrides.items()),
        )
        if spec.key in seen:
            assert seen[spec.key] == ident, "distinct specs collided on one key"
        seen[spec.key] = ident


def test_trace_cache_key_matches_repro_cache_contract(tmp_path):
    """A served cell's trace is stored under the repro-cache key of its
    own (app, nranks, overrides)."""
    spec = RunSpec.from_wire({**MINIMAL, "overrides": {"steps": 2}})
    run_pipeline(
        apps=["cactus"], scales={"cactus": [8]}, overrides=spec.overrides,
        cache_dir=str(tmp_path), argv=["test"], options=ExecOptions(bench_dir=None),
    )
    key = cache_key("cactus", 8, {"steps": 2})
    assert [p.name for p in ReproCache(tmp_path).list_entries()] == [f"cactus_p8_{key}.cols"]


def test_interconnect_config_carries_every_knob():
    spec = RunSpec.from_wire({**MINIMAL, "timesteps": 9, "reconfig_cost": 0.5, "slice_seed": 2})
    cfg = spec.config
    assert cfg.timesteps == 9
    assert cfg.reconfig_cost == 0.5
    assert cfg.slice_seed == 2
    assert cfg.circuits_per_node == 4


# -- validation-error table ---------------------------------------------------

INVALID = [
    ("not-an-object", [1, 2, 3], "must be a JSON object"),
    ("missing-app", {"nranks": 8}, "app: required"),
    ("missing-nranks", {"app": "cactus"}, "nranks: required"),
    ("unknown-app", {"app": "nonesuch", "nranks": 8}, "unknown app"),
    ("unknown-field", {**MINIMAL, "wat": 1}, "unknown field"),
    ("nranks-zero", {"app": "cactus", "nranks": 0}, "nranks"),
    ("nranks-negative", {"app": "cactus", "nranks": -4}, "nranks"),
    ("nranks-bool", {"app": "cactus", "nranks": True}, "nranks"),
    ("nranks-float", {"app": "cactus", "nranks": 8.0}, "nranks"),
    ("nranks-string", {"app": "cactus", "nranks": "8"}, "nranks"),
    ("nranks-huge", {"app": "cactus", "nranks": 1 << 21}, "nranks"),
    # Removed in spec format 2: even their former values are unknown fields.
    ("bad-backend", {**MINIMAL, "backend": "vector"}, "unknown field(s): backend"),
    ("bad-matcher", {**MINIMAL, "matcher": "vector"}, "unknown field(s): matcher"),
    ("seed-bool", {**MINIMAL, "timing_seed": False}, "timing_seed"),
    ("timesteps-zero", {**MINIMAL, "timesteps": 0}, "timesteps"),
    ("timesteps-huge", {**MINIMAL, "timesteps": 4097}, "timesteps"),
    ("slice-seed-float", {**MINIMAL, "slice_seed": 1.5}, "slice_seed"),
    ("overrides-null", {**MINIMAL, "overrides": None}, "overrides"),
    ("negative-circuits", {**MINIMAL, "circuits_per_node": -1}, "circuits_per_node"),
    ("zero-bandwidth", {**MINIMAL, "circuit_bandwidth": 0}, "circuit_bandwidth"),
    ("negative-latency", {**MINIMAL, "packet_latency": -1e-6}, "packet_latency"),
    ("inf-bandwidth", {**MINIMAL, "circuit_bandwidth": float("inf")}, "circuit_bandwidth"),
    ("nan-cost", {**MINIMAL, "reconfig_cost": float("nan")}, "reconfig_cost"),
    ("negative-cost", {**MINIMAL, "reconfig_cost": -0.1}, "reconfig_cost"),
    ("overrides-list", {**MINIMAL, "overrides": [1]}, "overrides"),
    ("overrides-nested", {**MINIMAL, "overrides": {"x": {"y": 1}}}, "overrides"),
]


@pytest.mark.parametrize("label,payload,needle", INVALID, ids=[i[0] for i in INVALID])
def test_invalid_payload_rejected(label, payload, needle):
    with pytest.raises(SpecError) as err:
        RunSpec.from_wire(payload)
    assert any(needle in e for e in err.value.errors), err.value.errors


def test_all_errors_collected_in_one_pass():
    with pytest.raises(SpecError) as err:
        RunSpec.from_wire({"app": "nonesuch", "nranks": -1, "timesteps": 0, "extra": 1})
    joined = " | ".join(err.value.errors)
    assert "app" in joined and "nranks" in joined
    assert "timesteps" in joined and "unknown field" in joined
    assert len(err.value.errors) >= 4


def test_nan_injected_via_json_literals_is_rejected():
    # json.loads accepts Infinity/NaN extensions; the validator must not.
    payload = json.loads('{"app": "cactus", "nranks": 8, "reconfig_cost": NaN}')
    with pytest.raises(SpecError):
        RunSpec.from_wire(payload)


def test_wire_form_is_flat_and_covers_every_input():
    """The job body and ledger entry stay flat: the cell, the scalar
    inputs, then each interconnect field at top level."""
    config_fields = {f.name for f in fields(InterconnectConfig)}
    wire = RunSpec.from_wire(MINIMAL).to_wire()
    assert set(wire) == {"app", "nranks", "timing_seed", "overrides"} | config_fields
    assert {f.name for f in fields(RunSpec)} == {"cells", "timing_seed", "overrides", "config"}


# -- hypothesis sweeps (skipped when the library is unavailable) --------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

spec_payloads = st.fixed_dictionaries(
    {"app": st.sampled_from(("cactus", "gtc", "lbmhd", "paratec")),
     "nranks": st.integers(min_value=1, max_value=1024)},
    optional={
        "timing_seed": st.integers(min_value=-10, max_value=10),
        "timesteps": st.integers(min_value=1, max_value=64),
        "slice_seed": st.integers(min_value=-5, max_value=5),
        "reconfig_cost": st.floats(min_value=0, max_value=10, allow_nan=False),
        "circuit_bandwidth": st.floats(min_value=1, max_value=1e12, allow_nan=False),
    },
)


@settings(max_examples=150, deadline=None)
@given(payload=spec_payloads)
def test_hypothesis_payload_round_trip_is_key_stable(payload):
    spec = RunSpec.from_wire(payload)
    again = RunSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
    assert again == spec
    assert again.key == spec.key


@settings(max_examples=150, deadline=None)
@given(payload=spec_payloads, data=st.data())
def test_hypothesis_key_equality_iff_canonical_doc_equality(payload, data):
    other = data.draw(spec_payloads)
    a, b = RunSpec.from_wire(payload), RunSpec.from_wire(other)
    assert (a.key == b.key) == (a.canonical_doc() == b.canonical_doc())
