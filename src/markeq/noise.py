"""Noise distributions driving additive-noise transition kernels.

A noise object describes the i.i.d. disturbance W in the one-step law
``x' = mu(x, u) + sigma(x, u) * W``.  It must expose a density, a
quadrature rule for expectations against that density, and the radius of
a truncated support carrying all but a prescribed tail mass.  A sampler
is optional (needed only for Monte Carlo evaluation) and a CDF is
optional (enables exact expectations of step functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import KernelError

# Tail mass left outside the truncated support of TV integrals.
TV_TAIL_MASS = 1e-8


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
        return special.ndtr(z)

    def quadrature(self, order: int):
        if order < 2:
            raise KernelError("quadrature order must be >= 2")
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        # Change of variables w = mean + sqrt(2)*std*x; weights normalized.
        return self.mean + np.sqrt(2.0) * self.std * nodes, weights / np.sqrt(np.pi)

    def support_radius(self, tail_mass: float) -> float:
        z = -special.ndtri(tail_mass / 2.0)
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
