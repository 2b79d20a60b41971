"""A serial run imports only what it runs.

Package ``__init__`` modules import nothing, and the scheduler, the HTTP
exporter, the live view and the other optional layers are imported in
the branches that use them. Each check runs in a fresh interpreter, so
modules that other tests imported cannot hide a new eager import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Never loaded by a serial, obs-off analysis.
SERIAL_EXCLUDED = (
    "multiprocessing",
    "subprocess",
    "http.server",
    "ssl",
    "email",
    "asyncio",
    "hfast.sched.scheduler",
    "hfast.sched.journal",
    "hfast.obs.analytics",
    "hfast.obs.prom",
    "hfast.obs.report",
    "hfast.obs.live",
    "hfast.obs.anomaly",
    "hfast.obs.stream",
)


def modules_after(code: str, cwd: Path) -> set[str]:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_serial_run_loads_no_optional_layer(tmp_path):
    loaded = modules_after(
        "import hfast.pipeline\n"
        "hfast.pipeline.run_pipeline(apps=['gtc'], scales={'gtc': [8]}, store=False)",
        tmp_path,
    )
    assert "hfast.pipeline" in loaded
    found = sorted(m for m in SERIAL_EXCLUDED if m in loaded)
    found += sorted(m for m in loaded if m.split(".")[:2] in (["hfast", "serve"], ["hfast", "dse"]))
    assert found == []


def test_cli_analyze_loads_no_http_server_or_multiprocessing(tmp_path):
    """A plain ``hfast analyze`` builds the whole parser and runs without
    profiling, live view or resume, so it loads none of the optional
    layers: no HTTP server or process pool, and neither the analytics
    behind ``hfast trace`` (and its ``--weight`` choices), the report
    writer, the anomaly detector nor the journal."""
    loaded = modules_after(
        "from hfast import cli\n"
        "assert cli.main(['analyze', '--no-store', '--apps', 'gtc', '--scales', '8',\n"
        f"                 '--cache-dir', {str(tmp_path / 'cache')!r}]) == 0",
        tmp_path,
    )
    assert "hfast.cli" in loaded
    assert sorted(m for m in SERIAL_EXCLUDED if m in loaded) == []
