"""Every file under scripts/ must import without side effects.

The fixture generator and the perf comparer are imported by tests and
tooling; an import must never write files, parse argv, or exit. The
scripts' and the e2e benchmark's calls of ``run_pipeline`` and
``run_search`` must bind to those functions' signatures.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"
SCRIPTS = sorted(p for p in SCRIPTS_DIR.glob("*.py"))


def test_scripts_exist():
    names = {p.name for p in SCRIPTS}
    assert {"gen_golden.py", "bench_compare.py"} <= names


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_import_has_no_side_effects(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any stray writes would land here
    monkeypatch.setattr(sys, "argv", [script.name])
    spec = importlib.util.spec_from_file_location(f"script_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main"), f"{script.name} must expose main()"
    assert list(tmp_path.iterdir()) == [], f"{script.name} wrote files on import"


#: Every script and benchmark file that calls the two run entry points.
CALLERS = [
    p for p in SCRIPTS + sorted((SCRIPTS_DIR.parent / "benchmarks" / "e2e").glob("*.py"))
    if "run_pipeline(" in p.read_text() or "run_search(" in p.read_text()
]


def test_callers_exist():
    names = {p.name for p in CALLERS}
    assert {"chaos_check.py", "live_smoke.py", "serve_smoke.py", "rep.py"} <= names


@pytest.mark.parametrize("script", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_run_calls_bind_to_the_current_signatures(script):
    """Each ``run_pipeline(...)``/``run_search(...)`` call's keywords bind
    to the function's signature, so a renamed keyword fails here rather
    than only when the script runs."""
    from hfast.dse.search import run_search
    from hfast.pipeline import run_pipeline

    signatures = {f.__name__: inspect.signature(f) for f in (run_pipeline, run_search)}
    calls = []
    for node in ast.walk(ast.parse(script.read_text())):
        func = getattr(node, "func", None)
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if isinstance(node, ast.Call) and name in signatures:
            calls.append(node)
            args = [None for a in node.args if not isinstance(a, ast.Starred)]
            kwargs = {k.arg: None for k in node.keywords if k.arg is not None}
            try:
                signatures[name].bind_partial(*args, **kwargs)
            except TypeError as exc:
                pytest.fail(f"{script.name}:{node.lineno}: {name}(...) does not bind: {exc}")
    assert calls
