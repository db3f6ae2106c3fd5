"""The normal tail behind the Gaussian tent masses, and a scipy-free runtime."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markeq import GaussianNoise
from markeq.noise import TV_TAIL_MASS, ndtr, normal_pdf, normal_tail

ROOT = Path(__file__).resolve().parent.parent
ULP = np.finfo(float).eps

# Decades of z, each sampled at 300 fixed points.
DECADES = [(-37.0, -30.0), (-30.0, -20.0), (-20.0, -10.0), (-10.0, -1.0), (-1.0, 0.0),
           (0.0, 1.0), (1.0, 8.0)]


def _worst_ulps(values, z, mpmath):
    """Largest relative error of values against Phi(z) at mpmath precision, in ulps."""
    return max(abs(float(mpmath.mpf(v) / mpmath.ncdf(x) - 1)) for v, x in zip(values, z)) / ULP


@pytest.mark.parametrize("lo, hi", DECADES)
def test_ndtr_no_less_accurate_than_scipy(lo, hi):
    # Relative error against 40-digit mpmath may not exceed scipy's on the
    # same sample, nor 4 ulps where scipy's is smaller.  Below -1 both
    # inherit the rounding of z^2 in exp(-z^2 / 2), scipy's more of it.
    mpmath = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    z = np.random.default_rng(DECADES.index((lo, hi))).uniform(lo, hi, 300)
    with mpmath.workdps(40):
        ours = _worst_ulps(ndtr(z), z, mpmath)
        scipy = _worst_ulps(special.ndtr(z), z, mpmath)
    assert ours <= max(scipy, 4.0), (ours, scipy)


def test_normal_tail_is_the_smaller_tail_with_the_given_density():
    z = np.linspace(-12.0, 12.0, 241)
    tail = normal_tail(z)
    assert np.array_equal(tail, normal_tail(z, normal_pdf(z)))
    assert np.array_equal(tail, normal_tail(-z))
    assert np.array_equal(tail, ndtr(-np.abs(z)))
    assert np.array_equal(tail, normal_tail(z.reshape(1, 1, -1)).reshape(-1))


def test_ndtr_edge_values():
    assert ndtr(0.0) == 0.5
    z = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 40.0, -40.0, 39.0, -37.5])
    out = ndtr(z)
    assert out[0] == 1.0 and out[1] == 0.0
    assert np.isnan(out[2])
    assert out[3] == 1.0 and out[4] == 0.0
    assert np.all(np.isfinite(out[3:])) and np.all(out[3:] >= 0.0)
    assert out[5] == 1.0 and out[6] == 0.0 and out[7] == 1.0
    assert 0.0 < out[8] < 1e-300  # subnormal, not flushed
    assert np.array_equal(GaussianNoise(1.0, 2.0).cdf([1.0, 3.0]), ndtr(np.array([0.0, 1.0])))


def test_support_radius_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        # P(|W| > r) = TV_TAIL_MASS: Phi(-r) = TV_TAIL_MASS / 2.
        r = -mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(TV_TAIL_MASS) - 1)
    ours = GaussianNoise().support_radius(TV_TAIL_MASS)
    assert abs(ours - float(r)) <= 4 * ULP * float(r)
    assert GaussianNoise(-1.0, 3.0).support_radius(TV_TAIL_MASS) == 1.0 + 3.0 * ours


SCIPY_FREE = """
import sys
import markeq, markeq.cli
for name in ("scipy", "statistics", "hashlib"):
    assert name not in sys.modules, f"import markeq, markeq.cli loads {name}"
from markeq import LQParams, discretize, lq_model, solve, verify_equilibrium
model = lq_model(LQParams(T=3), n_x=21, n_u=11)
dk = discretize(model.kernel, model.grids, model.constraints)
verify_equilibrium(model, dk, solve(model, dk))
assert "scipy" not in sys.modules, "discretize, solve and verify_equilibrium"
"""


def test_scipy_stays_off_the_runtime():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
