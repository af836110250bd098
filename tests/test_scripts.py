"""The scripts, run as subprocesses.  The sympy audit's reference values
come from sympy, not from the library code whose curvature and
implicit-derivative values it checks."""

import os
import subprocess
import sys

from conftest import CONFIGS, ROOT

TWO = str(CONFIGS / "two_circles_translate.cfg")


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_closed_forms_script_reports_no_mismatch():
    assert " 0 mismatches" in _run_script("reproduce_closed_forms.py")


def test_differentiability_script_passes_on_two_circles():
    out = _run_script("run_differentiability.py", "--config", TWO)
    assert "differentiable at 0 within tolerance: yes" in out


def test_continuity_sweep_script_passes_on_two_circles(tmp_path):
    out = _run_script("run_continuity_sweep.py", "--config", TWO,
                      "--out", str(tmp_path))
    assert "continuity modulus holds on every grid point: True" in out
    assert (tmp_path / "sweep.csv").exists()
