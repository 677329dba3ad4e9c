"""Every demo runs to completion as a standalone script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK = ["01_operator_algebra.py", "02_barriers_and_profiles.py", "03_scalar_problem.py",
         "04_segregation.py", "05_interface_diagnostics.py", "06_cli_tour.py"]


@pytest.mark.parametrize("script", QUICK)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
