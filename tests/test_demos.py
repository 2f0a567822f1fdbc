"""Smoke test: the demos and README's library example run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_sigma_three_routes.py",
        "02_quadrature_tour.py",
        "03_identity_report.py",
        "04_parameter_differentiation.py",
    ],
)
def test_demo_exits_zero(demo):
    proc = _run_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    proc = _run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    verdicts = [line.split()[1] for line in proc.stdout.splitlines()[1:]]  # after the one-integral line
    assert verdicts == ["True"] * 27, proc.stdout


def _run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
