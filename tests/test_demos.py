"""The demos that call the time-consistent baselines run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["inconsistency_comparison.py", "lq_regulator.py",
                                  "nonexponential_discounting.py"])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
