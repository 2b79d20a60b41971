"""The paper's %comm, and the fit that puts it in ``APP_PARAMS``.

The paper reports, per application, the share of runtime spent in MPI
communication at 64 and 256 processors. The synthesized traces fix the
wire side of that share (the per-record LogGP times), so the one free
parameter is each app's ``compute_step_s``, its per-iteration compute
time. At one scale ``pct = 100 c / (c + k s)``, with ``c`` the
communication seconds per rank and ``k`` the app's iteration count, so
``s = c (100 - pct) / (pct k)`` meets the target exactly; over the two
target scales the fit is the mean of the two solutions.

The test recomputes that fit from the default runs at timing seed 0 and
requires ``APP_PARAMS`` to hold it, so a change to a generator's traffic
fails here until the table is refitted.
"""

import math

import pytest

from hfast.cache import ReproCache
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app
from hfast.timing import _STEP_KNOBS, APP_PARAMS

#: Transcribed from the paper's table of the percentage of runtime spent
#: in MPI communication, at 64 and 256 processors.
PAPER_PCT_COMM = {
    "cactus": {64: 12.9, 256: 15.7},
    "gtc": {64: 7.4, 256: 9.2},
    "lbmhd": {64: 18.6, 256: 22.3},
    "paratec": {64: 41.0, 256: 53.6},
}
#: Apps whose default runs read within 2 points of every target.
#: paratec's per-pair message size does not shrink as the rank count
#: grows, so its fit reads 29.0% and 62.0%.
WITHIN_2_POINTS = ("cactus", "gtc", "lbmhd")


@pytest.mark.parametrize("app", sorted(PAPER_PCT_COMM))
def test_app_params_hold_the_paper_pct_comm_fit(app, tmp_path):
    targets = sorted(PAPER_PCT_COMM[app].items())
    timing = {
        nranks: analyze_app(app, nranks, ReproCache(tmp_path), Observability.disabled(),
                            store=False, timing_seed=0)["timing"]
        for nranks, _ in targets
    }
    steps = _STEP_KNOBS[app][1]
    solutions = []
    for nranks, pct in targets:
        comm = timing[nranks]["comm_time_s"] / nranks
        solutions.append(comm * (100.0 - pct) / (pct * steps))
    fit = math.fsum(solutions) / len(solutions)
    assert APP_PARAMS[app].compute_step_s == pytest.approx(fit, rel=1e-12, abs=0)
    if app in WITHIN_2_POINTS:
        for nranks, pct in targets:
            assert abs(timing[nranks]["pct_comm"] - pct) <= 2.0, (nranks, timing[nranks])
