"""Smoke test of the demos: each ``demos/0*.py`` script runs to completion.

The demos call the public API end to end (conjugacy coordinates, endpoint
sampling, both kernel routes), so a broken signature or a raised error in
any of them fails here.  They run in a subprocess against the imported
``wrapkit`` package, which needs no install.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wrapkit

# src/wrapkit/__init__.py -> src, and the project root one level above it
_SRC = Path(wrapkit.__file__).resolve().parents[1]
_DEMOS = sorted((_SRC.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 5


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
