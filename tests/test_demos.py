"""The demo scripts run from the repository root and print the values of
the shipped configurations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.slow


def run_demo(name, *args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_benchmark_spectra_refine_1():
    out = run_demo("benchmark_spectra.py", "--refine", "1")
    assert "--- obstacle (refine 1) ---" in out
    assert "rightmost eigenvalue: -2.321969e-01" in out
    assert "--- step (refine 1) ---" in out
    assert "rightmost eigenvalue: -4.614216e-04" in out


def test_random_viscosity_fields_runs():
    out = run_demo("random_viscosity_fields.py")
    assert "lognormal at cov 0.7" in out
