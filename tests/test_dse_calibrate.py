"""LogGP calibration: fit quality, artifact round-trip, ``hfast apps --params``."""

from __future__ import annotations

import json

import pytest

from hfast.cli import main
from hfast.dse.calibrate import (
    PAPER_PCT_COMM,
    calibrate,
    fit_compute_step,
    predicted_pct,
    write_artifact,
)
from hfast.timing import (
    APP_PARAMS,
    LogGPParams,
    ParamsArtifactError,
    TimingModel,
    load_params_artifact,
)


@pytest.fixture(scope="module")
def artifact_doc(repo_cache_dir):
    # scope=module: the fit reads four apps x two scales from the repo
    # cache once, and every test inspects the same document.
    return calibrate(cache_dir=str(repo_cache_dir), store=False)


# module-scoped fixture can't use the function-scoped repo_cache_dir
# fixture from conftest, so rebind it here at module scope.
@pytest.fixture(scope="module")
def repo_cache_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / ".repro_cache"


# -- the fit ----------------------------------------------------------------


def test_fit_moves_every_app_toward_paper_targets(artifact_doc):
    # One knob serves two scales, so judge per-app aggregate error: the
    # fit must strictly improve on the defaults summed across scales
    # (a single scale may individually regress, e.g. paratec's).
    for app, scales in artifact_doc["residuals"].items():
        fitted_err = sum(abs(r["fitted_pct"] - r["target_pct"]) for r in scales.values())
        default_err = sum(abs(r["default_pct"] - r["target_pct"]) for r in scales.values())
        assert fitted_err < default_err, (app, scales)


def test_fit_touches_only_compute_step(artifact_doc):
    for app, fields in artifact_doc["params"].items():
        base = APP_PARAMS[app]
        for wire in ("L", "o", "g", "G", "jitter"):
            assert fields[wire] == getattr(base, wire)
        assert fields["compute_step_s"] != base.compute_step_s
        assert fields["compute_step_s"] > 0


def test_closed_form_fit_is_exact_at_a_single_scale():
    # With one target scale the closed form must hit it exactly.
    app = "gtc"
    nranks = 64
    comm = 0.5
    pct = PAPER_PCT_COMM[app][nranks]
    step = comm * (100.0 - pct) / (pct * 10)  # gtc: 10 steps
    assert predicted_pct(comm, step * 10) == pytest.approx(pct)
    fitted = fit_compute_step(app, {64: comm, 256: comm})
    assert fitted > 0


def test_calibrate_rejects_unknown_apps(repo_cache_dir):
    with pytest.raises(ValueError, match="nosuchapp"):
        calibrate(apps=["nosuchapp"], cache_dir=str(repo_cache_dir))


# -- artifact round-trip ----------------------------------------------------


def test_artifact_round_trips_through_loader(artifact_doc, tmp_path):
    path = write_artifact(artifact_doc, tmp_path / "params.json")
    loaded = load_params_artifact(path)
    assert sorted(loaded) == sorted(PAPER_PCT_COMM)
    for app, params in loaded.items():
        assert isinstance(params, LogGPParams)
        assert params.compute_step_s == artifact_doc["params"][app]["compute_step_s"]
    doc = json.loads(path.read_text())
    assert doc["kind"] == "hfast-loggp-params"
    assert doc["provenance"]["tool"] == "hfast calibrate"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("params"),
        lambda d: d.update(kind="something-else"),
        lambda d: d.update(format=99),
        lambda d: d["params"]["gtc"].update(compute_step_s="fast"),
        lambda d: d["params"]["gtc"].update(jitter=1.5),
    ],
)
def test_loader_rejects_malformed_artifacts(artifact_doc, tmp_path, mutate):
    doc = json.loads(json.dumps(artifact_doc))
    mutate(doc)
    path = write_artifact(doc, tmp_path / "bad.json")
    with pytest.raises(ParamsArtifactError):
        load_params_artifact(path)


def test_loader_rejects_unreadable_file(tmp_path):
    with pytest.raises(ParamsArtifactError):
        load_params_artifact(tmp_path / "missing.json")
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    with pytest.raises(ParamsArtifactError):
        load_params_artifact(bad)


# -- hfast apps --params ---------------------------------------------------


def test_cli_apps_params_shows_both_provenances_and_installs_nothing(
    artifact_doc, tmp_path, capsys
):
    doc = json.loads(json.dumps(artifact_doc))
    doc["params"] = {"gtc": doc["params"]["gtc"]}  # an artifact fitting one app
    path = str(write_artifact(doc, tmp_path / "params.json"))

    assert main(["apps", "--params", path, "--cache-dir", str(tmp_path / "cache")]) == 0
    listing = json.loads(capsys.readouterr().out)
    gtc, cactus = listing["gtc"]["loggp"], listing["cactus"]["loggp"]
    assert gtc["provenance"] == f"calibrated:{path}"
    assert gtc["compute_step_s"] == doc["params"]["gtc"]["compute_step_s"]
    assert gtc["compute_step_s"] != APP_PARAMS["gtc"].compute_step_s
    assert cactus == {**APP_PARAMS["cactus"].to_dict(), "provenance": "default"}
    # Printing the fit installs nothing: later models use the defaults.
    assert TimingModel("gtc", 64).params == APP_PARAMS["gtc"]


def test_cli_apps_params_rejects_malformed_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["apps", "--params", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_calibration_is_deterministic(repo_cache_dir):
    a = calibrate(apps=["gtc"], cache_dir=str(repo_cache_dir), store=False)
    b = calibrate(apps=["gtc"], cache_dir=str(repo_cache_dir), store=False)
    assert a["params"] == b["params"]
    assert a["residuals"] == b["residuals"]
