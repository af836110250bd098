"""The sympy audit script, run as a subprocess.  Its reference values
come from sympy, not from the library code whose curvature and
implicit-derivative values it checks."""

import os
import subprocess
import sys

from conftest import ROOT


def test_closed_forms_script_reports_no_mismatch():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_closed_forms.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 mismatches" in proc.stdout
