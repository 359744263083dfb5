"""Smoke tests for the trend scripts under scripts/: each short run exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_ten_unit.py", "--iterations", "3", "--seeds", "0"],
        ["scripts/convergence_study.py", "--iterations", "3",
         "--gen-seeds", "17", "--run-seeds", "0"],
    ],
    ids=["run_ten_unit", "convergence_study"],
)
def test_script_short_run_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
