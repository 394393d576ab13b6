"""Smoke test of the demos: each ``demos/0*.py`` script, and each
```python block of ``README.md``, runs to completion.

The demos call the public API end to end (conjugacy coordinates, endpoint
sampling, both kernel routes), so a broken signature or a raised error in
any of them fails here.  They run in a subprocess against the imported
``wrapkit`` package, which needs no install.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wrapkit

# src/wrapkit/__init__.py -> src, and the project root one level above it
_SRC = Path(wrapkit.__file__).resolve().parents[1]
_DEMOS = sorted((_SRC.parent / "demos").glob("0*.py"))
_README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                            (_SRC.parent / "README.md").read_text(), re.M | re.S)


def test_demos_are_found():
    assert len(_DEMOS) >= 5


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    _run([str(script)], tmp_path)


def test_readme_has_python_examples():
    assert _README_BLOCKS


@pytest.mark.parametrize("code", [pytest.param(c, id=f"block{i}")
                                  for i, c in enumerate(_README_BLOCKS)])
def test_readme_example_runs(code, tmp_path):
    _run(["-c", code], tmp_path)
