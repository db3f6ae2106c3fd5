"""Noise distributions driving additive-noise transition kernels.

A noise object describes the i.i.d. disturbance W in the one-step law
``x' = mu(x, u) + sigma(x, u) * W``.  It must expose a density, a
quadrature rule for expectations against that density, and the radius of
a truncated support carrying all but a prescribed tail mass.  A sampler
is optional (needed only for Monte Carlo evaluation) and a CDF is
optional (enables exact expectations of step functions).

The module also holds the standard normal density, tail and CDF that the
Gaussian tent masses and ``GaussianNoise`` use, in numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import KernelError

# Tail mass left outside the truncated support of TV integrals.
TV_TAIL_MASS = 1e-8

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# The Mills ratio M(a) = Phi(-a) / phi(a), a >= 0, as one rational
# P(t) / Q(t) of degree 10/10 in t = a / (a + 6) on a in [0, 40], Q monic;
# coefficients lowest degree first, fitted in relative error by
# tools/fit_normal_tail.py: within 2.7e-17 of M at 50 digits, and within
# 6.4 ulps of it as evaluated below in doubles.  Past a = 40, phi(a) is 0.
_MILLS_A_MAX = 40.0
_MILLS_NUM = (
    0.46490384930727496, -0.37606432324149547, 1.9184489692096294, -1.316636519160282,
    2.3067370904363673, -1.4785127695872644, 0.524305876349067, -0.9787267411351078,
    -0.4831139921502802, -0.420804857767008, -0.16053658225091877,
)
_MILLS_DEN = (  # the leading 1 left out
    0.3709396036200966, 1.4757459789296792, 3.6944394379034984, 6.868914073461063,
    10.208525354679791, 12.483029590481745, 12.659130094769175, 10.544573179609026,
    6.987133505150844, 3.4123582120609406,
)


def normal_pdf(z):
    """Standard normal density exp(-z^2 / 2) / sqrt(2 pi), elementwise."""
    with np.errstate(over="ignore"):  # z^2 = inf: the density is 0
        phi = np.exp(np.square(z) * -0.5)
    phi /= _SQRT_2PI
    return phi


def normal_tail(z, phi=None):
    """Phi(-|z|) elementwise, as phi(z) * M(|z|); ``phi``, if given, is ``normal_pdf(z)``.

    P and Q advance by Horner's rule, each in place on its own contiguous
    array with scalar coefficients; Q's leading 1 makes its first step t + q_9.
    """
    z = np.asarray(z, dtype=float)
    t = np.abs(z).reshape(-1)
    np.minimum(t, _MILLS_A_MAX, out=t)
    den = t + 6.0
    t /= den
    num = t * _MILLS_NUM[-1]
    np.add(t, _MILLS_DEN[-1], out=den)
    for p, q in zip(_MILLS_NUM[-2:0:-1], _MILLS_DEN[-2::-1]):
        num += p
        num *= t
        den *= t
        den += q
    num += _MILLS_NUM[0]
    num /= den
    num *= (normal_pdf(z) if phi is None else phi).reshape(-1)
    return num.reshape(z.shape)


def ndtr(z):
    """Standard normal CDF Phi(z) elementwise, from the smaller tail."""
    z = np.asarray(z, dtype=float)
    tail = normal_tail(z)
    return np.where(z > 0.0, 1.0 - tail, tail)


class Noise:
    """Interface for scalar noise distributions with a Lebesgue density."""

    def pdf(self, w):
        raise NotImplementedError

    def cdf(self, w):
        """CDF, or raise if unavailable."""
        raise NotImplementedError

    def quadrature(self, order: int):
        """Nodes and probability weights (weights sum to 1) for E[g(W)]."""
        raise NotImplementedError

    def support_radius(self, tail_mass: float) -> float:
        """r with P(|W| > r) <= tail_mass."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size):
        raise KernelError("noise distribution has no sampler")


@dataclass(frozen=True)
class GaussianNoise(Noise):
    """N(mean, std^2) noise: CDF from ``ndtr``, support radius from ``statistics.NormalDist``."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise KernelError("Gaussian noise needs std > 0")

    def pdf(self, w):
        z = (np.asarray(w, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * np.sqrt(2.0 * np.pi))

    def cdf(self, w):
        z = (np.asarray(w, dtype=float) - self.mean) / self.std
        return ndtr(z)

    def quadrature(self, order: int):
        if order < 2:
            raise KernelError("quadrature order must be >= 2")
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        # Change of variables w = mean + sqrt(2)*std*x; weights normalized.
        return self.mean + np.sqrt(2.0) * self.std * nodes, weights / np.sqrt(np.pi)

    def support_radius(self, tail_mass: float) -> float:
        from statistics import NormalDist  # deferred: only tv_distance asks for a radius

        z = -NormalDist().inv_cdf(tail_mass / 2.0)
        return abs(self.mean) + z * self.std

    def sample(self, rng: np.random.Generator, size):
        return rng.normal(self.mean, self.std, size=size)


@dataclass(frozen=True)
class DensityNoise(Noise):
    """Generic noise given by a density on a truncated support [-radius, radius].

    Expectations use composite trapezoid panels on the truncated support,
    renormalised to unit mass, so mass outside the radius is dropped: the
    radius should hold all but a negligible tail of the density.
    """

    density: Callable[[np.ndarray], np.ndarray]
    radius: float
    cdf_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sampler: Optional[Callable[[np.random.Generator, tuple], np.ndarray]] = None

    def pdf(self, w):
        return np.asarray(self.density(np.asarray(w, dtype=float)), dtype=float)

    def cdf(self, w):
        if self.cdf_fn is None:
            raise KernelError("this density noise has no CDF")
        return self.cdf_fn(np.asarray(w, dtype=float))

    def quadrature(self, order: int):
        if order < 2:
            raise KernelError("quadrature order must be >= 2")
        nodes = np.linspace(-self.radius, self.radius, order)
        dens = self.pdf(nodes)
        if not np.all(np.isfinite(dens)):
            raise KernelError("noise density returned non-finite values")
        h = nodes[1] - nodes[0]
        weights = np.full(order, h)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        weights = weights * dens
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            raise KernelError("quadrature weights are degenerate")
        return nodes, weights / total

    def support_radius(self, tail_mass: float) -> float:
        return self.radius

    def sample(self, rng: np.random.Generator, size):
        if self.sampler is None:
            raise KernelError("this density noise has no sampler")
        return np.asarray(self.sampler(rng, size), dtype=float)
