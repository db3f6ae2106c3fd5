"""Transition kernels: specification, grid discretization, and diagnostics.

Two kernel families are supported.  ``AdditiveNoise`` describes
``x' = mu(t, x, u) + sigma(t, x, u) * W`` with scalar noise W; it is
discretized onto the state grids by assigning, for each (time, state
node, control node), the probability mass of the landing distribution to
the two bracketing next-grid nodes (linear mass interpolation, mass
beyond the grid clamped to the edge node).  ``DiscreteChain`` carries
explicit row-stochastic matrices and passes through; like every kernel,
its weights below ``WEIGHT_FLOOR`` are set to 0.

The module also houses the continuity diagnostics: a numeric total
variation distance between one-step laws at two controls, and a probe
checking |E_u[V] - E_u'[V]| <= M * TV for bounded measurable V.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InfeasibleControlError, KernelError
from .noise import TV_TAIL_MASS, GaussianNoise, Noise, normal_pdf, normal_tail

ROW_SUM_TOL = 1e-10
# Landing weights below this are set to 0 (Gaussian tail mass beyond about
# 11 sigma): subnormal weights, and products of tiny normal ones that
# underflow, put every propagation matmul on the CPU's slow arithmetic path.
WEIGHT_FLOOR = 1e-30
# Half-width, in landing stds, of the window of nodes whose Gaussian tent
# masses are computed.  A node more than 12 stds from the mean carries less
# than Phi(-12) ~ 1.8e-33, 560 times below WEIGHT_FLOOR, so the floor zeroes
# it over the whole grid as well.  Both cells of the first node past 12 stds
# on each side are kept, so every weight that can pass the floor is computed
# as over the whole grid, bit for bit; what the window leaves out of the
# left-to-right normalising sum (under 4e-33 in all) sits 17 orders below
# that sum's last bit.
TENT_WINDOW = 12.0
# Entries per block of tent masses: the block's temporaries stay in cache.
TENT_BLOCK = 60_000
CHAIN_ROW_TOL = 1e-12
QUAD_ORDER = 41  # noise quadrature points per landing row of non-Gaussian noise
# Largest difference between a cached row and the same row rebuilt from the
# spec passed to ``load_kernel_cache``; a cache from this spec rebuilds exactly.
CACHE_SPEC_TOL = 1e-12
FEAS_TOL = 1e-9


def broadcasting(fn: Callable) -> Callable:
    """``fn`` made to return a float array of the broadcast shape of its arguments.

    ``fn`` may return anything that broadcasts against its arguments: a
    scalar, say, or an array over some of them.  A value that has to be
    broadcast is copied into a new array, never returned as a zero-stride
    view, so matmuls on it stay in BLAS.  Wrapping twice is a no-op.
    """
    if getattr(fn, "broadcasts", False):
        return fn

    @functools.wraps(fn)
    def wrapped(*args):
        val = np.asarray(fn(*args), dtype=float)
        # np.broadcast is several times cheaper per call than np.broadcast_shapes.
        shape = np.broadcast(val, *args).shape
        if val.shape == shape:
            return val
        out = np.empty(shape)
        out[...] = val
        return out

    wrapped.broadcasts = True
    return wrapped


@dataclass(frozen=True)
class AdditiveNoise:
    """Kernel x' = drift(t, x, u) + scale(t, x, u) * W.

    drift and scale take numpy arrays and may return anything that
    broadcasts against their arguments (``scale=lambda t, x, u: 0.5``);
    the kernel wraps them with ``broadcasting`` once, so ``kernel.drift``
    and ``kernel.scale`` return float arrays of the arguments' broadcast
    shape.  ``sigma_floor`` is the lower bound required of scale; rows
    violating it are rejected at discretization time.  A zero floor admits
    degenerate (point-mass) kernels: those are usable only with the
    exact-expectation and continuity-probe paths, never for solving.
    Refinement differentiates them in u (``derivative``): make them smooth there.
    """

    drift: Callable
    scale: Callable
    noise: Noise
    sigma_floor: float = 1e-8

    def __post_init__(self):
        if self.sigma_floor < 0:
            raise KernelError("sigma_floor must be >= 0")
        object.__setattr__(self, "drift", broadcasting(self.drift))
        object.__setattr__(self, "scale", broadcasting(self.scale))

    def landing_params(self, t, x, u):
        """Mean and std of x' given (t, x, u), folding in the noise moments."""
        mu, sc = self.drift(t, x, u), self.scale(t, x, u)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sc))):
            raise KernelError(f"non-finite landing mean or std at t={t}")
        if np.any(sc < self.sigma_floor) or np.any(sc <= 0):
            raise KernelError(f"scale fell below sigma_floor at t={t}")
        return mu, sc


@dataclass(frozen=True)
class DiscreteChain:
    """Explicit per-(t, state-node, control-node) stochastic matrices.

    matrices[t] has shape (n_t, M_u, n_{t+1}); control_values[t] are the
    M_u control node values shared by all states at time t.
    """

    matrices: Sequence[np.ndarray]
    control_values: Sequence[np.ndarray]

    def __post_init__(self):
        if (n := len(self.matrices)) != (m := len(self.control_values)):
            raise KernelError(f"chain has {n} matrices but {m} control_values entries")
        for t, P in enumerate(self.matrices):
            P = np.asarray(P, dtype=float)
            if P.ndim != 3:
                raise KernelError(f"chain matrix at t={t} must be 3-d")
            if np.any(P < 0):
                raise KernelError(f"negative transition weight at t={t}")
            rows = P.sum(axis=-1)
            if np.any(np.abs(rows - 1.0) > CHAIN_ROW_TOL):
                raise KernelError(f"non-stochastic row at t={t}")
            u = np.asarray(self.control_values[t], dtype=float)
            if u.ndim != 1 or u.size != P.shape[1]:
                raise KernelError(f"control values at t={t} do not match matrix")
            if u.size > 1 and np.any(np.diff(u) <= 0):
                raise KernelError(f"control values at t={t} must be strictly increasing")


KernelSpec = Union[AdditiveNoise, DiscreteChain]


@dataclass
class DiscretizedKernel:
    """Per-time weight tensors W[t][i, j, m] and control node values U[t][i, j].

    With an additive-noise ``spec``, off-node rows are built by the rule that
    built the node rows, not blended (blending is only piecewise linear in
    u, which misplaces interior minima of curved objectives).
    """

    weights: List[np.ndarray]
    controls: List[np.ndarray]
    grids: List[np.ndarray]
    clamped: List[np.ndarray] = field(default_factory=list)  # clamp mass per (i, j)
    spec: Optional["KernelSpec"] = None

    @property
    def build_method(self) -> str:
        """The spec's row rule: "blend" without ``AdditiveNoise``, else "exact" or "quadrature"."""
        if not isinstance(self.spec, AdditiveNoise):
            return "blend"
        return "exact" if isinstance(self.spec.noise, GaussianNoise) else "quadrature"

    @property
    def horizon(self) -> int:
        return len(self.weights) + 1

    def check_rows(self, tol: float = ROW_SUM_TOL):
        for t, W in enumerate(self.weights):
            rows = W.sum(axis=-1)  # a NaN weight fails both comparisons
            if not (np.all(np.abs(rows - 1.0) <= tol) and np.all(W >= -tol)):
                raise KernelError(f"discretized rows at t={t} are not stochastic")

    def _feasible(self, t: int, nodes: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Check U (k, P) against each node's control interval; clip within FEAS_TOL."""
        Uk = self.controls[t][nodes]
        lo, hi = Uk[:, :1], Uk[:, -1:]
        bad = (U < lo - FEAS_TOL) | (U > hi + FEAS_TOL)
        if np.any(bad):
            r, p = np.argwhere(bad)[0]
            raise InfeasibleControlError(
                f"control {U[r, p]} outside [{lo[r, 0]}, {hi[r, 0]}] at t={t}, "
                f"node {nodes[r]}")
        return np.clip(U, lo, hi)

    def _blend(self, t: int, nodes: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Rows blended linearly between bracketing control nodes; exact at nodes."""
        Uk = self.controls[t][nodes]
        r = np.arange(nodes.size)[:, None]
        j = np.sum(Uk[:, None, :] < U[..., None], axis=-1)  # searchsorted, left
        exact = Uk[r, j] == U
        jl = np.where(exact, j, j - 1)
        theta = np.divide(U - Uk[r, jl], Uk[r, j] - Uk[r, jl],
                          out=np.zeros_like(U), where=~exact)
        W = self.weights[t]
        rows = nodes[:, None]
        return (1.0 - theta)[..., None] * W[rows, jl] + theta[..., None] * W[rows, j]

    def node_rows(self, t: int, nodes, U) -> np.ndarray:
        """Landing weights for state nodes ``nodes`` (k,) at controls U, (k,) or (k, P).

        Returns U.shape + (n_{t+1},); row r belongs to node nodes[r].
        Additive-noise kernels re-discretize at each control exactly (the
        rule that built the node tensors); discrete chains, and caches
        loaded without a spec, blend between bracketing control nodes.
        Either way node controls reproduce W[t][i, j] bit for bit.
        ``row`` and ``row_block`` are thin wrappers over this one evaluator.
        """
        nodes = np.asarray(nodes, dtype=np.intp).reshape(-1)
        U = np.asarray(U, dtype=float)
        shape = U.shape + (self.grids[t + 1].size,)
        U = self._feasible(t, nodes, U.reshape(nodes.size, -1))
        if self.spec is None or isinstance(self.spec, DiscreteChain):
            return self._blend(t, nodes, U).reshape(shape)
        mu, sc = self.spec.landing_params(t, self.grids[t][nodes][:, None], U)
        W, _ = _landing_rows(self.grids[t + 1], mu, sc, self.spec.noise)
        return W.reshape(shape)

    def node_slopes(self, t: int, nodes, U, g) -> np.ndarray:
        """d/du of ``node_rows(t, nodes, U) @ g``, shape U.shape; g broadcasts to the rows.

        Drift and scale slopes from ``derivative`` within each node's control
        interval move the tent block or the quadrature landings; blended rows
        are linear between control nodes.
        """
        nodes, shape, grid = np.asarray(nodes, np.intp).reshape(-1), np.shape(U), self.grids[t + 1]
        U = self._feasible(t, nodes, np.asarray(U, dtype=float).reshape(nodes.size, -1))
        nodes, u = np.repeat(nodes, U.shape[1]), U.reshape(-1)  # one row per control
        g = np.broadcast_to(g, shape + grid.shape).reshape(u.size, grid.size)
        if self.spec is None or isinstance(self.spec, DiscreteChain):
            Uk, k = self.controls[t][nodes], np.arange(u.size)
            j = np.clip(np.sum(Uk < u[:, None], axis=-1), 1, Uk.shape[1] - 1)
            W = self.weights[t][nodes, np.stack([j - 1, j])]
            return (np.einsum("kn,kn->k", W[1] - W[0], g)
                    / (Uk[k, j] - Uk[k, j - 1])).reshape(shape)
        spec, x, noise = self.spec, self.grids[t][nodes], self.spec.noise
        mu, sc = spec.landing_params(t, x, u)
        ends = self.controls[t][nodes][:, [0, -1]].T  # the stencils stay in each interval
        mu_u, sc_u = (derivative(lambda v: f(t, x, v), u, *ends)
                      for f in (spec.drift, spec.scale))
        if isinstance(noise, GaussianNoise):  # d/dmean, d/dstd: sum_k (P_k, phi_k - phi_k+1) dg_k
            dm, ds = np.empty((2, u.size))
            for rows, start, z, phi, P, *_ in _tent_blocks(grid, mu + sc * noise.mean,
                                                           sc * noise.std):
                dg = np.diff(_sliding(g.reshape(-1), len(z))[rows * grid.size + start].T, axis=0)
                dg /= _sliding(np.diff(grid), len(z) - 1)[start].T  # the slope of g on cell k
                dm[rows] = np.einsum("kr,kr->r", P, dg)
                ds[rows] = np.einsum("kr,kr->r", phi[:-1] - phi[1:], dg)
            return ((mu_u + sc_u * noise.mean) * dm + sc_u * noise.std * ds).reshape(shape)
        wq, omega = noise.quadrature(QUAD_ORDER)
        landing = mu[:, None] + sc[:, None] * wq  # g' is 0 off the grid
        j = np.clip(np.searchsorted(grid, landing, side="right"), 1, grid.size - 1)
        dg = np.take_along_axis(g, j, -1) - np.take_along_axis(g, j - 1, -1)
        dg *= ((landing > grid[0]) & (landing < grid[-1])) / (grid[j] - grid[j - 1])
        return ((mu_u[:, None] + sc_u[:, None] * wq) * dg @ omega / omega.sum()).reshape(shape)

    def row(self, t: int, i: int, u: float) -> np.ndarray:
        """Landing weights at node i and an arbitrary feasible control."""
        return self.node_rows(t, [i], [u])[0]

    def row_block(self, t: int, U: np.ndarray) -> np.ndarray:
        """Rows for every state node over a (n, P) array of controls -> (n, P, nn)."""
        return self.node_rows(t, np.arange(len(U)), U)


# 4th-order first-derivative weights at offsets -2..2 steps, shifted by -2, 0 or 2 steps.
_STENCILS = np.array([[3.0, -16.0, 36.0, -48.0, 25.0], [1.0, -8.0, 0.0, 8.0, -1.0],
                      [-25.0, 48.0, -36.0, 16.0, -3.0]]) / 12.0


def derivative(f, u, lo=-np.inf, hi=np.inf):
    """df/du by a 5-point stencil that calls f only on [lo, hi]; f maps (5,) + u.shape.

    The step is 1e-3 (1 + |u|), at most (hi - lo) / 6, and the stencil is
    one-sided within two steps of an end; across a kink it blends both sides.
    """
    d = np.where(hi > lo, np.minimum(1e-3 * (1.0 + np.abs(u)), (hi - lo) / 6.0), 1e-3)
    side = np.where(u - 2.0 * d < lo, 2, np.where(u + 2.0 * d > hi, 0, 1))  # forward, backward
    steps = (np.arange(-2.0, 3.0).reshape((5,) + (1,) * np.ndim(u)) + 2.0 * (side - 1)) * d
    return np.sum(np.moveaxis(_STENCILS[side], -1, 0) * f(u + steps), axis=0) / d


def spread_mass(grid: np.ndarray, points: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Distribute point masses onto bracketing grid nodes (clamped at edges).

    points/masses share shape (..., Q); returns (..., len(grid)).
    """
    points = np.asarray(points, dtype=float)
    masses = np.asarray(masses, dtype=float)
    n = grid.size
    out = np.zeros(points.shape[:-1] + (n,))
    clipped = np.clip(points, grid[0], grid[-1])
    j = np.clip(np.searchsorted(grid, clipped, side="right"), 1, n - 1)
    left = grid[j - 1]
    right = grid[j]
    theta = (clipped - left) / (right - left)
    flat_out = out.reshape(-1, n)
    flat_j = j.reshape(-1, points.shape[-1])
    flat_theta = theta.reshape(-1, points.shape[-1])
    flat_m = np.broadcast_to(masses, points.shape).reshape(-1, points.shape[-1])
    rows = np.repeat(np.arange(flat_out.shape[0]), points.shape[-1])
    np.add.at(flat_out, (rows, (flat_j - 1).ravel()), ((1 - flat_theta) * flat_m).ravel())
    np.add.at(flat_out, (rows, flat_j.ravel()), (flat_theta * flat_m).ravel())
    return out


def _tent_blocks(grid: np.ndarray, mean: np.ndarray, std: np.ndarray):
    """N(mean, std^2) on the nodes within ``TENT_WINDOW`` stds of each mean; mean/std (R,).

    Yields, per block of about ``TENT_BLOCK`` entries over rows sorted by
    window width, (rows, start, z, phi, P, lo_tail, hi_tail, spare): the
    first window node, z = (x - mean) / std and phi(z) node-major (width,
    rows), so each step is a pass over contiguous lines, the cell masses P,
    the normal mass below the grid and above it, and a spare array shaped
    like z.  One exp per entry gives phi, and the normal tail
    ``noise.normal_tail`` is phi times a rational in |z|.
    """
    n = grid.size
    first = np.maximum(np.searchsorted(grid, mean - TENT_WINDOW * std) - 2, 0)
    stop = np.minimum(np.searchsorted(grid, mean + TENT_WINDOW * std) + 2, n)
    order = np.argsort(first - stop, kind="stable")  # widest window first
    i0 = 0
    while i0 < order.size:
        width = stop[order[i0]] - first[order[i0]]
        rows = order[i0:i0 + max(1, TENT_BLOCK // width)]
        i0 += rows.size
        start = np.minimum(first[rows], n - width)
        # One array of z for the density and the tail: line j holds node j of
        # every row's window, the last two lines each row's first and last node.
        zx = np.empty((width + 2, rows.size))
        zx[:width] = _sliding(grid, width)[start].T
        zx[width:] = grid[[0, -1], None]
        zx -= mean[rows]
        zx /= std[rows]
        z, phi = zx[:width], normal_pdf(zx)
        block, (lo, hi) = np.split(normal_tail(zx, phi), [width])
        # Phi(z) at the first node and Phi(-z) at the last, each from the smaller tail.
        lo_tail = np.where(zx[width] > 0.0, 1.0 - lo, lo)
        hi_tail = np.where(zx[width + 1] < 0.0, 1.0 - hi, hi)
        # Cell masses from the smaller tail, so their rounding is relative:
        # block = -Phi(z) below the mean and 1 - Phi(z) from it on.
        np.copysign(block, z, out=block)
        P = block[:-1] - block[1:]
        c = np.searchsorted(grid, mean[rows]) - start  # window nodes below the mean
        turn = (c > 0) & (c < width)
        P[c[turn] - 1, turn] += 1.0  # the cell that holds the mean
        yield rows, start, z, phi[:width], P, lo_tail, hi_tail, block


def _gaussian_tent_masses(grid: np.ndarray, mean: np.ndarray, std: np.ndarray):
    """Landing rows of N(mean, std^2) on ``grid``: exact hat-function masses.

    mean/std have shape (R,); returns rows (R, len(grid)) and the clamped
    tail mass (R,), which goes to the end nodes.  In z-units, z_k = (x_k -
    mean) / std, cell k holds the mass P_k and sends A_k = (z_{k+1} P_k +
    phi_{k+1} - phi_k) / (z_{k+1} - z_k) to its left node, P_k - A_k to its
    right.  Each block of ``_tent_blocks`` is clipped at 0, normalised by each
    row's sum taken left to right (line by line, or by ``np.add.accumulate``
    down the block when it holds fewer rows than nodes; ``np.add.reduce``
    would sum a lone row pairwise) and floored, so rows equal the same
    arithmetic over the whole grid, bit for bit, and do not depend on the batch.
    """
    n = grid.size
    out = np.zeros((mean.size, n))
    clamp = np.empty(mean.size)
    flat = out.reshape(-1)
    for rows, start, z, phi, P, lo_tail, hi_tail, block in _tent_blocks(grid, mean, std):
        width = z.shape[0]
        clamp[rows] = lo_tail + hi_tail
        A = (z[1:] * P + phi[1:] - phi[:-1]) / (z[1:] - z[:-1])
        P -= A
        block[0], block[-1] = A[0], P[-1]
        np.add(A[1:], P[:-1], out=block[1:-1])
        block[0] += np.where(start == 0, lo_tail, 0.0)
        block[-1] += np.where(start + width == n, hi_tail, 0.0)
        np.maximum(block, 0.0, out=block)
        block /= (functools.reduce(operator.iadd, block[1:], block[0].copy())
                  if rows.size > width else np.add.accumulate(block, axis=0)[-1])
        # Window k of the flat view is flat[k:k + width]; those written lie in distinct rows.
        _sliding(flat, width)[rows * n + start] = _floor(block).T
        del z, phi, P, A, block  # freed before the next block is built: peak memory
    return out, clamp


def _sliding(a: np.ndarray, width: int) -> np.ndarray:
    """``sliding_window_view`` of a contiguous 1-d array, writeable if it is, without its checks."""
    return as_strided(a, (a.size - width + 1, width), a.strides * 2)


def _landing_rows(grid: np.ndarray, mu: np.ndarray, sc: np.ndarray, noise: Noise):
    """Landing rows mu.shape + (len(grid),) for the laws mu + sc * W, and their clamped mass.

    ``mu`` and ``sc`` are float arrays of one shape.  Gaussian noise gets
    closed-form hat-function masses; other noise spreads its ``QUAD_ORDER``
    quadrature points onto the grid.  Weights below ``WEIGHT_FLOOR`` become 0.
    """
    shape = mu.shape
    if isinstance(noise, GaussianNoise):
        W, clamp = _gaussian_tent_masses(grid, (mu + sc * noise.mean).reshape(-1),
                                         (sc * noise.std).reshape(-1))
        return W.reshape(shape + grid.shape), clamp.reshape(shape)
    wq, omega = noise.quadrature(QUAD_ORDER)
    if not (np.all(np.isfinite(wq)) and np.all(np.isfinite(omega))):
        raise KernelError("non-finite quadrature rule")
    landing = mu[..., None] + sc[..., None] * wq
    inside = (landing >= grid[0]) & (landing <= grid[-1])
    clamp = np.sum(np.where(inside, 0.0, omega), axis=-1)
    W = spread_mass(grid, landing, omega)
    np.maximum(W, 0.0, out=W)
    W /= W.sum(axis=-1, keepdims=True)
    return _floor(W), clamp


def _floor(W: np.ndarray) -> np.ndarray:
    """Set the weights of W below ``WEIGHT_FLOOR`` to 0, in place; idempotent."""
    W *= W >= WEIGHT_FLOOR
    return W


def discretize(kernel: KernelSpec, grids: Sequence[np.ndarray],
               constraints) -> DiscretizedKernel:
    """Tabulate landing weights for every (time, state node, control node).

    The kernel alone picks the rule (``build_method``): closed-form
    hat-function masses for Gaussian noise, the noise's ``QUAD_ORDER``-point
    quadrature spread onto the nodes otherwise.  DiscreteChain matrices, one
    per decision time, pass through with their rows re-verified.  Every
    weight below ``WEIGHT_FLOOR`` is set to 0, chain weights included, so a
    kernel reloaded from its cache equals the one saved.
    """
    grids = [np.asarray(g, dtype=float) for g in grids]
    T = len(grids)
    if isinstance(kernel, DiscreteChain):
        if len(kernel.matrices) != T - 1:
            raise KernelError(f"chain has {len(kernel.matrices)} matrices for {T - 1} times")
        weights, controls, clamped = [], [], []
        for t, (P, u) in enumerate(zip(kernel.matrices, kernel.control_values)):
            P = np.asarray(P, dtype=float)
            if P.shape[0] != grids[t].size or P.shape[2] != grids[t + 1].size:
                raise KernelError(f"chain matrix shape mismatch at t={t}")
            weights.append(_floor(P.copy()))
            controls.append(np.tile(np.asarray(u, dtype=float), (grids[t].size, 1)))
            clamped.append(np.zeros(P.shape[:2]))
        dk = DiscretizedKernel(weights, controls, grids, clamped, spec=kernel)
        dk.check_rows(CHAIN_ROW_TOL)
        return dk

    weights, controls, clamped = [], [], []
    for t in range(T - 1):
        x = grids[t]
        U = constraints[t].nodes(x)  # (n, M)
        mu, sc = kernel.landing_params(t, x[:, None], U)
        W, clamp = _landing_rows(grids[t + 1], mu, sc, kernel.noise)
        weights.append(W)
        controls.append(U)
        clamped.append(clamp)
    dk = DiscretizedKernel(weights, controls, grids, clamped, spec=kernel)
    dk.check_rows()
    return dk


def policy_matrix(dk: DiscretizedKernel, t: int, controls: np.ndarray) -> np.ndarray:
    """One-step transition matrix under the per-node control values at time t."""
    controls = np.asarray(controls, dtype=float)
    n = dk.grids[t].size
    if controls.shape != (n,):
        raise InfeasibleControlError(f"policy at t={t} must give one control per node")
    return dk.node_rows(t, np.arange(n), controls)


# ---------------------------------------------------------------------------
# Continuity diagnostics (additive-noise kernels only)
# ---------------------------------------------------------------------------

def tv_distance(kernel: AdditiveNoise, t: int, x: float, u1: float, u2: float,
                panels: int = 4096) -> float:
    """Numeric total variation distance between the laws of x' at u1 and u2.

    Integrates |rho_1 - rho_2| over a truncated support carrying at least
    1 - 1e-8 of both masses, with composite trapezoid panels.
    """
    if isinstance(kernel, DiscreteChain):
        raise KernelError("tv_distance requires an additive-noise kernel")
    mu1, s1 = (float(v) for v in kernel.landing_params(t, x, u1))
    mu2, s2 = (float(v) for v in kernel.landing_params(t, x, u2))
    r = kernel.noise.support_radius(TV_TAIL_MASS)
    lo = min(mu1 - s1 * r, mu2 - s2 * r)
    hi = max(mu1 + s1 * r, mu2 + s2 * r)
    z = np.linspace(lo, hi, panels + 1)
    d1 = kernel.noise.pdf((z - mu1) / s1) / s1
    d2 = kernel.noise.pdf((z - mu2) / s2) / s2
    val = 0.5 * np.trapezoid(np.abs(d1 - d2), z)
    tv = float(2.0 * val)  # L1 convention: integral of |rho1 - rho2|, range [0, 2]
    return min(max(tv, 0.0), 2.0)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function: value levels[k] on [breaks[k-1], breaks[k])."""

    breaks: np.ndarray   # strictly increasing, length L-1
    levels: np.ndarray   # length L

    def __post_init__(self):
        object.__setattr__(self, "breaks", np.asarray(self.breaks, dtype=float))
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=float))
        if self.levels.size != self.breaks.size + 1:
            raise ValueError("need one more level than breakpoints")
        if self.breaks.size and np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def bound(self) -> float:
        return float(np.max(np.abs(self.levels)))

    def __call__(self, z):
        idx = np.searchsorted(self.breaks, np.asarray(z, dtype=float), side="right")
        return self.levels[idx]


@dataclass(frozen=True)
class PointIndicator:
    """Indicator of a single point; nonzero expectation only under a point mass."""

    point: float = 0.0

    @property
    def bound(self) -> float:
        return 1.0

    def __call__(self, z):
        return (np.asarray(z, dtype=float) == self.point).astype(float)


def exact_expectation(kernel: AdditiveNoise, t: int, x: float, u: float, V) -> float:
    """E[V(x')] against the true (not discretized) one-step law.

    StepFunction integrands use the noise CDF when available;
    other bounded integrands fall back to dense quadrature.  A zero scale
    (degenerate kernel) is admitted here, as a point mass at the drift;
    this bypass exists only for the continuity probe.
    """
    mu, sc = float(kernel.drift(t, x, u)), float(kernel.scale(t, x, u))
    if sc == 0.0:
        return float(np.asarray(V(mu), dtype=float))
    if sc < 0:
        raise KernelError("negative scale")
    if isinstance(V, PointIndicator):
        return 0.0  # point sets are null under a density
    if isinstance(V, StepFunction):
        w_breaks = (V.breaks - mu) / sc
        cdf = np.concatenate(([0.0], kernel.noise.cdf(w_breaks), [1.0]))
        probs = np.diff(cdf)
        return float(V.levels @ probs)
    nodes, omega = kernel.noise.quadrature(2001)
    return float(np.asarray(V(mu + sc * nodes), dtype=float) @ omega)


@dataclass
class ProbeReport:
    """Outcome of a setwise-continuity probe along a control sequence u_k -> u."""

    gaps: np.ndarray          # (len(u_seq), len(V_family)) |E_{u_k}[V] - E_u[V]|
    tv_bounds: np.ndarray     # (len(u_seq),) M * TV(u_k, u); NaN when sigma = 0
    bound_violated: bool
    converged: bool
    limit_values: np.ndarray  # E_u[V] per member of the family


def setwise_continuity_probe(kernel: AdditiveNoise, t: int, x: float, u: float,
                             u_seq: Sequence[float], V_family, M: float,
                             samples: int = 4096,
                             seed: int = 0) -> ProbeReport:
    """Check |E_{u_k}[V] - E_u[V]| <= M * TV(u_k, u) and gap decay along u_k -> u.

    Members of V_family must satisfy |V| <= M (spot-checked by sampling).
    Degenerate (zero-scale) controls are admitted: TV bounds are skipped
    there and only the gap decay is judged.
    """
    rng = np.random.default_rng(seed)
    probe_pts = rng.uniform(-1e3, 1e3, size=samples)
    for V in V_family:
        vals = np.asarray(V(probe_pts), dtype=float)
        if np.any(np.abs(vals) > M + 1e-12):
            raise ValueError("V family member exceeds the stated bound M")

    u_seq = np.asarray(u_seq, dtype=float)
    limit = np.array([exact_expectation(kernel, t, x, u, V) for V in V_family])
    gaps = np.empty((u_seq.size, len(V_family)))
    tvb = np.full(u_seq.size, np.nan)
    for k, uk in enumerate(u_seq):
        gaps[k] = [abs(exact_expectation(kernel, t, x, uk, V) - limit[j])
                   for j, V in enumerate(V_family)]
        sc_k, sc_0 = float(kernel.scale(t, x, uk)), float(kernel.scale(t, x, u))
        if min(sc_k, sc_0) > 0.0 and min(sc_k, sc_0) >= kernel.sigma_floor:
            tvb[k] = M * tv_distance(kernel, t, x, uk, u)

    with_bound = ~np.isnan(tvb)
    violated = bool(np.any(gaps[with_bound].max(axis=1, initial=0.0)
                           > tvb[with_bound] + 1e-6)) if with_bound.any() else False

    # Shrinkage heuristic: as |u_k - u| halves, the worst gap must not grow
    # by more than 10%, and the final gap must approach 0.
    dist = np.abs(u_seq - u)
    worst = gaps.max(axis=1)
    order = np.argsort(dist)[::-1]  # far to near
    converged = True
    for a, b in zip(order[:-1], order[1:]):
        if dist[a] > 0 and dist[b] <= 0.5 * dist[a] + 1e-15:
            if worst[b] > 1.1 * worst[a] + 1e-12:
                converged = False
    if worst[order[-1]] > max(0.05 * worst[order[0]], 1e-9):
        converged = False
    return ProbeReport(gaps=gaps, tv_bounds=tvb, bound_violated=violated,
                       converged=converged, limit_values=limit)


# ---------------------------------------------------------------------------
# Binary cache
# ---------------------------------------------------------------------------
#
# Layout (little-endian):
#   magic b"MKEQDK02"
#   uint32 T
#   uint32 build method: 0 blend, 1 exact, 2 quadrature (``build_method``)
#   uint32 quadrature order (``QUAD_ORDER``)
#   per t in 0..T-2:
#     uint32 n_t, uint32 M_u, uint32 n_next
#     float64[n_t]                 state grid at t
#     float64[n_t * M_u]           control nodes, row-major
#     float64[n_t * M_u * n_next]  weights, row-major
#     float64[n_t * M_u]           clamped mass, row-major
#   float64[n_T]                   terminal state grid
# Version 1 (magic b"MKEQDK01") has no build fields: see load_kernel_cache.

_MAGIC = b"MKEQDK02"
_METHODS = ("blend", "exact", "quadrature")


def save_kernel_cache(dk: DiscretizedKernel, path):
    def floats(X):  # the array's own buffer when it is already contiguous <f8
        fh.write(memoryview(np.ascontiguousarray(X, dtype="<f8")))

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", dk.horizon, _METHODS.index(dk.build_method), QUAD_ORDER))
        for t in range(dk.horizon - 1):
            fh.write(struct.pack("<III", *dk.weights[t].shape))
            for X in (dk.grids[t], dk.controls[t], dk.weights[t], dk.clamped[t]):
                floats(X)
        floats(dk.grids[-1])


def _read(fh, path, size: int, what: str, into=None):
    """``size`` bytes of fh, or the array ``into`` of that size filled in place."""
    data = fh.read(size) if into is None else into
    got = len(data) if into is None else fh.readinto(memoryview(into).cast("B"))
    if got < size:
        raise KernelError(f"truncated kernel cache {path}: {what} needs {size} bytes, "
                          f"found {got}")
    return data


def load_kernel_cache(path, spec: Optional[KernelSpec] = None) -> DiscretizedKernel:
    """Load a cached kernel; pass the original spec to restore exact off-node rows.

    Off-node rows are built by the spec's rule, as in ``discretize``; the
    build fields of a version-2 header are read only to reject unknown codes.
    Weights below ``WEIGHT_FLOOR`` are set to 0, as ``discretize`` does.
    With an ``AdditiveNoise`` spec, the rows of the first and last state
    node at every cached control are rebuilt from it; rows off by more
    than ``CACHE_SPEC_TOL`` mean the cache came from another kernel, and
    raise KernelError rather than mix the two.
    """

    def floats(shape, what):
        arr = _read(fh, path, 8 * int(np.prod(shape)), what, into=np.empty(shape, dtype="<f8"))
        if not np.all(np.isfinite(arr)):
            raise KernelError(f"kernel cache {path}: non-finite {what}")
        return arr

    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic not in (_MAGIC, b"MKEQDK01"):
            raise KernelError("not a kernel cache file")
        (T,) = struct.unpack("<I", _read(fh, path, 4, "horizon"))
        if T < 2:
            raise KernelError(f"kernel cache {path} declares horizon {T} < 2")
        if magic == _MAGIC:
            code, _ = struct.unpack("<II", _read(fh, path, 8, "build header"))
            if code >= len(_METHODS):
                raise KernelError(f"kernel cache {path} names unknown build method {code}")
        weights, controls, grids, clamped = [], [], [], []
        nn = None
        for t in range(T - 1):
            n, M, nn = struct.unpack("<III", _read(fh, path, 12, f"shape header at t={t}"))
            grids.append(floats((n,), f"state grid at t={t}"))
            controls.append(floats((n, M), f"control nodes at t={t}"))
            weights.append(_floor(floats((n, M, nn), f"weights at t={t}")))
            clamped.append(floats((n, M), f"clamped mass at t={t}"))
        grids.append(floats((nn,), "terminal state grid"))
    dk = DiscretizedKernel(weights, controls, grids, clamped, spec=spec)
    try:
        dk.check_rows()
    except KernelError as exc:
        raise KernelError(f"kernel cache {path}: {exc}") from None
    if isinstance(spec, AdditiveNoise):
        for t, W in enumerate(weights):
            ends = [0, W.shape[0] - 1]
            d = np.max(np.abs(dk.node_rows(t, ends, controls[t][ends]) - W[ends]))
            if not d <= CACHE_SPEC_TOL:
                raise KernelError(f"kernel cache {path} was not built from this kernel: "
                                  f"rows at t={t} differ by {d:.3e}")
    return dk
