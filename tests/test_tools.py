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


def _bench_pairs():
    path = ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_pairs_summary_applies_the_win_and_spread_rule():
    # Synthetic samples only: no benchmark run starts.
    tool = _bench_pairs()
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    fast = [p - 0.10 for p in parent]
    pairs = [({"s": p, "mb": 50.0, "noisy": p}, {"s": c, "mb": 50.0, "noisy": p - 0.01})
             for p, c in zip(parent, fast)]
    rows = {r[0]: r for r in tool.summarize(pairs, {"s": "lower", "mb": "lower",
                                                    "noisy": "lower"})}
    name, qp, qc, wins, claim = rows["s"]
    assert qp == tuple(np.percentile(parent, (25, 50, 75)))
    assert qc == tuple(np.percentile(fast, (25, 50, 75)))
    assert wins == 10 and claim
    assert rows["mb"][3:] == (0, False)  # ties count for neither side
    # wins every pair, but by less than the parent's interquartile range
    assert rows["noisy"][3:] == (10, False)
    # nine wins of ten still claim; eight do not
    for lost, expect in ((1, True), (2, False)):
        mixed = [(p, dict(c, s=p["s"] + 0.5) if i < lost else c)
                 for i, (p, c) in enumerate(pairs)]
        assert tool.summarize(mixed, {"s": "lower"})[0][3:] == (10 - lost, expect)
    # "higher" is better: the same samples, mirrored
    mirrored = [({"x": -p["s"]}, {"x": -c["s"]}) for p, c in pairs]
    assert tool.summarize(mirrored, {"x": "higher"})[0][3:] == (10, True)
