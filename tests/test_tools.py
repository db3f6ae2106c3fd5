"""The replay tool for the tent-mass layer runs and catches a changed row."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from markeq import kernels

ROOT = Path(__file__).resolve().parent.parent
REPLAY = ROOT / "tools" / "replay_tent_masses.py"


def _replay(baseline):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(REPLAY), "--baseline", str(baseline),
                           "--instance", "lq_21x11", "--rounds", "1"],
                          env=env, capture_output=True, text=True, timeout=300)


def test_replay_tent_masses_against_the_working_tree():
    proc = _replay(ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "lq_21x11:" in proc.stdout and "all bit-identical to the baseline" in proc.stdout
    for label in ("1 row", "2-1000 rows", ">1000 rows"):
        assert label in proc.stdout


def test_replay_tent_masses_reports_a_changed_row(tmp_path):
    shutil.copytree(ROOT / "src" / "markeq", tmp_path / "src" / "markeq",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernels = tmp_path / "src" / "markeq" / "kernels.py"
    kernels.write_text(kernels.read_text() + (
        "\n\n_exact = _gaussian_tent_masses\n\n\n"
        "def _gaussian_tent_masses(grid, mean, std):\n"
        "    W, clamp = _exact(grid, mean, std)\n"
        "    return np.nextafter(W, 2.0), clamp\n"))
    proc = _replay(tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "differs from the baseline" in proc.stdout


def test_replay_passes_the_baseline_the_keywords_it_accepts():
    # Baselines whose function takes ``banded`` replay a banded call banded,
    # like this checkout; older ones get the positional arguments only.
    spec = importlib.util.spec_from_file_location("replay_tent_masses", REPLAY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    grid, seen = np.linspace(-3.0, 3.0, 31), []

    def with_banded(grid, mean, std, banded=False):
        seen.append(("with_banded", banded))
        return kernels._gaussian_tent_masses(grid, mean, std, banded=banded)

    def positional_only(grid, mean, std):
        seen.append(("positional_only", None))
        return kernels._gaussian_tent_masses(grid, mean, std)

    calls = [((grid, np.linspace(-2.0, 2.0, n), np.full(n, 0.4)), form)
             for n, form in ((1, {}), (1200, {"banded": True}))]
    for base in (with_banded, positional_only):
        seen.clear()
        assert tool.replay("fake", calls, base, rounds=1)
        expected = (False, True) if base is with_banded else (None, None)
        # one checking pass, then one timed call per class
        assert seen == [(base.__name__, b) for b in expected * 2]
