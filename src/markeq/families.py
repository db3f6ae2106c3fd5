"""Built-in model families and their oracles.

Three inconsistent-control families ship with the package:

* ``lq_model``: linear-quadratic regulator whose terminal target is the
  evaluation state itself, plus a nonlinear variant penalizing the
  squared expectation of the positive part of the terminal state.
* ``mv_model``: mean-variance portfolio selection (variance minus a
  multiple of the mean of terminal wealth), with a Gaussian and an exact
  two-point-chain version, and a closed-form recursion for the state
  independent equilibrium controls.
* ``exp_utility_model``: exponential utility with non-exponential
  discounting and a compact control interval.

State grids widen with time so that the reachable mass of every feasible
control stays essentially inside the grid; node spacing is held roughly
constant by scaling node counts with the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import ModelError
from .kernels import AdditiveNoise, DiscreteChain, spread_mass
from .model import ControlConstraint, Costs, Model
from .solver import golden_section


def _widening_grids(T: int, x_lo: float, x_hi: float, n_x: int, growth: float,
                    scale: float = 1.0) -> List[np.ndarray]:
    """Per-time grids [lo_t, hi_t] with n_x nodes each.

    lo/hi expand each step by ``growth`` after multiplying by ``scale``
    (the homogeneous part of the dynamics), covering the states reachable
    under any feasible control; spacing grows with the span.
    """
    grids = []
    lo, hi = float(x_lo), float(x_hi)
    for _ in range(T):
        grids.append(np.linspace(lo, hi, n_x))
        lo = scale * lo - growth
        hi = scale * hi + growth
    return grids


# ---------------------------------------------------------------------------
# Linear-quadratic regulator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LQParams:
    a: float = 1.0
    b: float = 1.0
    sigma: float = 1.0
    T: int = 3

    def __post_init__(self):
        if self.sigma <= 0:
            raise ModelError("sigma must be > 0")
        if self.T < 2:
            raise ModelError("horizon must be >= 2")


def _lq_kernel(p: LQParams) -> AdditiveNoise:
    from .noise import GaussianNoise
    return AdditiveNoise(drift=lambda t, x, u: p.a * x + p.b * u,
                         scale=lambda t, x, u: p.sigma,
                         noise=GaussianNoise(),
                         sigma_floor=0.5 * p.sigma)


def lq_model(params: LQParams = LQParams(), x_lo: float = -6.0, x_hi: float = 6.0,
             n_x: int = 121, u_lo: float = -5.0, u_hi: float = 5.0,
             n_u: int = 101) -> Model:
    """Quadratic control cost, terminal cost (x_T - y)^2 anchored at the
    evaluation state y; additive Gaussian noise."""
    p = params
    growth = abs(p.b) * max(abs(u_lo), abs(u_hi)) + 5.0 * p.sigma
    grids = _widening_grids(p.T, x_lo, x_hi, n_x, growth, scale=abs(p.a))
    costs = Costs(running=lambda t, s, y, x, u: np.square(u),
                  terminal=lambda s, y, xT: np.square(xT - y),
                  terminal_stat=lambda xT: 0.0,
                  mixer=lambda s, y, h: 0.0,
                  assume_nonneg=True)
    constraints = [ControlConstraint.interval(u_lo, u_hi, n_u) for _ in range(p.T - 1)]
    return Model(T=p.T, grids=grids, constraints=constraints,
                 kernel=_lq_kernel(p), costs=costs)


def nonlinear_lq_variant(params: LQParams = LQParams(), **windows) -> Model:
    """LQ dynamics with cost u^2 plus (E[max(x_T, 0)])^2."""
    base = lq_model(params, **windows)
    costs = Costs(running=base.costs.running,
                  terminal=lambda s, y, xT: 0.0,
                  terminal_stat=lambda xT: np.maximum(xT, 0.0),
                  mixer=lambda s, y, h: np.square(h),
                  assume_nonneg=True)
    return Model(T=base.T, grids=base.grids, constraints=base.constraints,
                 kernel=base.kernel, costs=costs)


# ---------------------------------------------------------------------------
# Mean-variance portfolio selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanVarianceParams:
    R: float = 1.02
    mu: float = 0.05
    sigma2: float = 0.01
    gamma: float = 1.0
    T: int = 4

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ModelError("sigma2 must be > 0")
        if self.R < 1.0:
            raise ModelError("R must be >= 1")
        if self.gamma <= 0:
            raise ModelError("gamma must be > 0")
        if self.T < 2:
            raise ModelError("horizon must be >= 2")


def _mv_costs(p: MeanVarianceParams) -> Costs:
    return Costs(running=lambda t, s, y, x, u: 0.0,
                 terminal=lambda s, y, xT: np.square(xT) - p.gamma * xT,
                 terminal_stat=lambda xT: xT,
                 mixer=lambda s, y, h: -np.square(h),
                 assume_nonneg=False)


def mv_model(params: MeanVarianceParams = MeanVarianceParams(),
             x_lo: float = -2.0, x_hi: float = 4.0, n_x: int = 201,
             u_lo: float = 0.0, u_hi: float = 5.0, n_u: int = 401) -> Model:
    """Wealth x' = R x + u Z with Gaussian Z of mean mu, variance sigma2."""
    from .noise import GaussianNoise
    p = params
    sd = float(np.sqrt(p.sigma2))
    u_abs = max(abs(u_lo), abs(u_hi))
    growth = u_abs * (abs(p.mu) + 6.5 * sd)
    grids = _widening_grids(p.T, x_lo, x_hi, n_x, growth, scale=p.R)
    kernel = AdditiveNoise(drift=lambda t, x, u: p.R * x + p.mu * u,
                           scale=lambda t, x, u: np.maximum(np.abs(u), 1e-6) * sd,
                           noise=GaussianNoise(), sigma_floor=1e-7 * sd)
    constraints = [ControlConstraint.interval(u_lo, u_hi, n_u) for _ in range(p.T - 1)]
    return Model(T=p.T, grids=grids, constraints=constraints, kernel=kernel,
                 costs=_mv_costs(p))


def mv_chain_model(params: MeanVarianceParams = MeanVarianceParams(),
                   x_lo: float = -2.0, x_hi: float = 4.0, n_x: int = 81,
                   u_lo: float = 0.0, u_hi: float = 5.0, n_u: int = 41) -> Model:
    """Two-point-noise mean-variance instance as an explicit discrete chain.

    Z takes mu +/- sqrt(sigma2) with equal probability (matching the
    required first two moments); landings are spread linearly onto the
    next grid, so the chain is an exact-arithmetic test instance.
    """
    p = params
    sd = float(np.sqrt(p.sigma2))
    u_abs = max(abs(u_lo), abs(u_hi))
    growth = u_abs * (abs(p.mu) + sd)
    grids = _widening_grids(p.T, x_lo, x_hi, n_x, growth, scale=p.R)
    uvals = np.linspace(u_lo, u_hi, n_u)
    matrices = []
    for t in range(p.T - 1):
        x = grids[t]
        landings = np.stack([p.R * x[:, None] + uvals[None, :] * (p.mu + sd),
                             p.R * x[:, None] + uvals[None, :] * (p.mu - sd)], axis=-1)
        W = spread_mass(grids[t + 1], landings, np.array([0.5, 0.5]))
        matrices.append(W)
    chain = DiscreteChain(matrices=matrices,
                          control_values=[uvals.copy() for _ in range(p.T - 1)])
    constraints = [ControlConstraint.interval(u_lo, u_hi, n_u) for _ in range(p.T - 1)]
    return Model(T=p.T, grids=grids, constraints=constraints, kernel=chain,
                 costs=_mv_costs(p))


@dataclass
class MVClosedForm:
    """State-independent equilibrium controls and the per-time quadratic tables."""

    controls: np.ndarray      # u*_t, t = 0..T-2
    h0: np.ndarray            # h0[t]: constant part of E[x_T | x_{t+1}] under the tail
    a1: np.ndarray            # linear coefficient of E[x_T^2 | x_{t+1}]
    a0: np.ndarray            # constant coefficient of E[x_T^2 | x_{t+1}]
    quad_a: np.ndarray        # coefficient of u^2 in the time-t objective
    quad_b: np.ndarray        # coefficient of u (state independent)
    params: MeanVarianceParams

    def objective(self, t: int, x: float, u) -> np.ndarray:
        """The time-t objective as a function of u, assembled from the tables."""
        p = self.params
        e = p.T - 2 - t
        R, mu, s2, g = p.R, p.mu, p.sigma2, p.gamma
        u = np.asarray(u, dtype=float)
        lin = (R ** (2 * e) * (R * R * x * x + 2 * R * x * mu * u + (mu * mu + s2) * u * u)
               + (self.a1[t] - g * R ** e) * (R * x + mu * u)
               + self.a0[t] - g * self.h0[t])
        mean_xT = R ** (e + 1) * x + R ** e * mu * u + self.h0[t]
        return lin - np.square(mean_xT)


def mv_closed_form(params: MeanVarianceParams) -> MVClosedForm:
    """Backward recursion for the state-independent equilibrium controls.

    At each t the objective is quadratic in u with leading coefficient
    R^(2e) * sigma2 (e = T-2-t) and u-coefficient -gamma * mu * R^e; the
    x-linear contributions cancel, so u*_t = gamma * mu / (2 sigma2 R^e).
    Each stationary point is cross-checked against a one-dimensional
    numerical minimization of the assembled quadratic before use.
    """
    p = params
    T = p.T
    R, mu, s2, g = p.R, p.mu, p.sigma2, p.gamma
    controls = np.zeros(T - 1)
    h0 = np.zeros(T - 1)
    a1 = np.zeros(T - 1)
    a0 = np.zeros(T - 1)
    quad_a = np.zeros(T - 1)
    quad_b = np.zeros(T - 1)
    cf = MVClosedForm(controls, h0, a1, a0, quad_a, quad_b, p)
    for t in range(T - 2, -1, -1):
        e = T - 2 - t
        ks = np.arange(t + 1, T - 1)
        disc = R ** (T - 2 - ks) * controls[ks] if ks.size else np.zeros(0)
        h0[t] = mu * disc.sum()
        a1[t] = 2.0 * R ** e * h0[t]
        if ks.size:
            outer = np.outer(disc, disc)
            a0[t] = (mu * mu * (outer.sum() - np.trace(outer))
                     + ((R ** (2.0 * (T - 2 - ks)) * controls[ks] ** 2).sum()
                        * (mu * mu + s2)))
        quad_a[t] = R ** (2 * e) * s2
        quad_b[t] = -g * mu * R ** e
        controls[t] = g * mu / (2.0 * s2 * R ** e)
        # Cross-check against direct minimization of the assembled quadratic.
        span = 10.0 * (1.0 + abs(controls[t]))
        u_num, _ = golden_section(lambda u: float(cf.objective(t, 0.7, u)),
                                  controls[t] - span, controls[t] + span, tol=1e-12)
        if abs(u_num - controls[t]) > 1e-6 * (1.0 + abs(controls[t])):
            raise ModelError("closed-form stationary point failed its numerical check")
    return cf


# ---------------------------------------------------------------------------
# Non-exponential discounting with exponential utility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpUtilityParams:
    gamma: float = 1.0
    beta: float = 0.5          # phi(tau) = 1 / (1 + beta * tau)
    R: float = 1.02
    mu: float = 0.05
    sigma: float = 0.1
    u_lo: float = 0.1
    u_hi: float = 2.0
    T: int = 4
    phi: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.gamma <= 0 or self.sigma <= 0:
            raise ModelError("gamma and sigma must be > 0")
        if not 0 < self.u_lo <= self.u_hi:
            raise ModelError("need 0 < u_lo <= u_hi")
        if self.T < 2:
            raise ModelError("horizon must be >= 2")

    def discount(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.phi is not None:
            out = np.asarray(self.phi(tau), dtype=float)
        else:
            out = 1.0 / (1.0 + self.beta * tau)
        if np.any(out <= 0):
            raise ModelError("discount function must be positive")
        return out


def exp_utility_model(params: ExpUtilityParams = ExpUtilityParams(),
                      x_lo: float = -1.0, x_hi: float = 3.0, n_x: int = 121,
                      u_lo: Optional[float] = None, u_hi: Optional[float] = None,
                      n_u: int = 101) -> Model:
    """Terminal cost phi(T-1-s) exp(-gamma x_T)/gamma on wealth dynamics."""
    from .noise import GaussianNoise
    p = params
    lo = p.u_lo if u_lo is None else u_lo
    hi = p.u_hi if u_hi is None else u_hi
    if not 0 < lo <= hi:
        raise ModelError("need 0 < u_lo <= u_hi")
    growth = hi * (abs(p.mu) + 6.0 * p.sigma)
    grids = _widening_grids(p.T, x_lo, x_hi, n_x, growth, scale=p.R)
    kernel = AdditiveNoise(drift=lambda t, x, u: p.R * x + p.mu * u,
                           scale=lambda t, x, u: np.abs(u) * p.sigma,
                           noise=GaussianNoise(), sigma_floor=0.5 * lo * p.sigma)
    costs = Costs(running=lambda t, s, y, x, u: 0.0,
                  terminal=lambda s, y, xT: p.discount(p.T - 1 - s) * np.exp(-p.gamma * xT)
                  / p.gamma,
                  terminal_stat=lambda xT: 0.0,
                  mixer=lambda s, y, h: 0.0,
                  assume_nonneg=True)
    constraints = [ControlConstraint.interval(lo, hi, n_u) for _ in range(p.T - 1)]
    return Model(T=p.T, grids=grids, constraints=constraints, kernel=kernel,
                 costs=costs)


# Config family name -> (builder, its parameter dataclass), read by ``build_model``.
CONFIG_FAMILIES = {
    "lq": (lq_model, LQParams),
    "nonlinear_lq": (nonlinear_lq_variant, LQParams),
    "mean_variance": (mv_model, MeanVarianceParams),
    "mean_variance_chain": (mv_chain_model, MeanVarianceParams),
    "exp_utility": (exp_utility_model, ExpUtilityParams),
}
