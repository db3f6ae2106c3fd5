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
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
# Band widths are multiples of this (see DiscretizedKernel), unless a band spans its row.
BAND_ALIGN = 16
# Entries per chunk of rows: band gathers, cache reads and writes stay this small.
BAND_CHUNK = 1 << 16
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
            if not np.all(np.isfinite(P)):  # NaN passes both tests below
                raise KernelError(f"non-finite transition weight at t={t}")
            if np.any(P < 0):
                raise KernelError(f"negative transition weight at t={t}")
            rows = P.sum(axis=-1)
            if np.any(np.abs(rows - 1.0) > CHAIN_ROW_TOL):
                raise KernelError(f"non-stochastic row at t={t}")
            u = np.asarray(self.control_values[t], dtype=float)
            if u.ndim != 1 or u.size != P.shape[1]:
                raise KernelError(f"control values at t={t} do not match matrix")
            if not np.all(np.isfinite(u)):
                raise KernelError(f"non-finite control value at t={t}")
            if u.size > 1 and np.any(np.diff(u) <= 0):
                raise KernelError(f"control values at t={t} must be strictly increasing")


KernelSpec = Union[AdditiveNoise, DiscreteChain]


class DiscretizedKernel:
    """Landing rows W[t][i, j] on the time-(t+1) grid, and control nodes U[t][i, j].

    Slice t holds one row per (state node i, control node j), stored as a
    band: the row's values from its first nonzero on, over its nonzero
    width rounded up to a multiple of ``BAND_ALIGN`` (at most the whole
    row; a band that would run past the row's end starts early enough to
    end there).  Bands of one width share one contiguous array.  The rule
    reads a row's values alone, so a row built twice is banded alike, and
    ``expect``, the contraction for every hot path, sums it in the same
    order wherever it came from.  ``weights`` builds dense slices on
    access, for inspection and tests.  A ``DiscreteChain`` kernel also keeps
    a read-only dense copy of each slice that a blend or a shared-vector
    contraction has read (see ``_dense``).

    With an additive-noise ``spec``, off-node rows are built by the rule that
    built the node rows, not blended (blending is only piecewise linear in
    u, which misplaces interior minima of curved objectives).  ``weights``
    may be given dense, one (n_t, M, n_{t+1}) array per t: they are floored
    (``WEIGHT_FLOOR``) and banded a chunk of rows at a time, and the
    caller's arrays are left as they are.
    """

    def __init__(self, weights, controls, grids, clamped=(), spec: Optional[KernelSpec] = None):
        self._bands = [W if isinstance(W, _Bands) else _dense_bands(np.asarray(W, dtype=float))
                       for W in weights]
        self.controls = list(controls)
        self.grids = list(grids)
        self.clamped = list(clamped)  # clamp mass per (i, j)
        self.spec = spec
        self._kept = [None] * len(self._bands)  # see _dense

    @property
    def weights(self) -> Sequence[np.ndarray]:
        """Read-only sequence of the dense slices W[t], each built when read and not kept."""
        return _Slices(self._bands)

    @property
    def nbytes(self) -> int:
        """Bytes the kernel stores: bands, their row indices and starts, grids, controls, clamp."""
        return sum(B.nbytes for B in self._bands) + sum(
            a.nbytes for a in (*self.controls, *self.grids, *self.clamped))

    @property
    def build_method(self) -> str:
        """The spec's row rule: "blend" without ``AdditiveNoise``, else "exact" or "quadrature"."""
        if not isinstance(self.spec, AdditiveNoise):
            return "blend"
        return "exact" if isinstance(self.spec.noise, GaussianNoise) else "quadrature"

    @property
    def horizon(self) -> int:
        return len(self._bands) + 1

    def grid_rows(self, t: int):
        """The stored rows of slice t, (n_t, M, n_{t+1}), as ``expect`` takes them.

        An array-like: ``np.asarray`` builds the dense slice.
        """
        return self._bands[t]

    def expect(self, t: int, v, rows=None) -> np.ndarray:
        """Landing rows at t dotted with vectors ``v`` on the time-(t+1) grid.

        With ``v`` (c, k, n_{t+1}), c vectors per node, node r's rows meet
        v[:, r]: the stored rows (``grid_rows(t)``) when ``rows`` is None,
        else dense rows (k, ..., n_{t+1}) such as ``node_rows`` builds.
        Each band meets its window of them in one einsum, so a row's value
        depends on that row alone, bit for bit, wherever it is stored and
        whatever batch holds it.  With ``v`` (c, n_{t+1}), shared by every
        row, the stored rows meet it in one GEMM on a dense slice (see
        ``_dense``): the fast form for many columns.  Returns (c,) + the
        rows' leading shape.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim == 2 and rows is None:
            D = self._dense(t)
            return (D.reshape(-1, D.shape[-1]) @ v.T).T.reshape(v.shape[:1] + D.shape[:-1])
        rows = self._bands[t] if rows is None else rows
        if v.shape[1:] != (rows.shape[0], rows.shape[-1]):
            raise ValueError(f"vectors of shape {v.shape} do not fit rows {rows.shape}")
        return rows.dot(v) if isinstance(rows, _Bands) else _dense_dot(np.asarray(rows), v)

    def _dense(self, t: int) -> np.ndarray:
        """Dense slice t for blending and shared-vector contractions.

        Kept, read-only, for a ``DiscreteChain``, whose every off-node row
        reads two stored rows and whose spec holds its matrices dense anyway;
        built afresh, and dropped by the caller, otherwise.
        """
        if not isinstance(self.spec, DiscreteChain):
            return self._bands[t].dense()
        if self._kept[t] is None:
            self._kept[t] = self._bands[t].dense()
            self._kept[t].flags.writeable = False
        return self._kept[t]

    def check_rows(self, tol: float = ROW_SUM_TOL):
        for t, B in enumerate(self._bands):
            for _, _, band in B.groups:
                rows = band.sum(axis=-1)  # a NaN weight fails both comparisons
                if not (np.all(np.abs(rows - 1.0) <= tol) and np.all(band >= -tol)):
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
        W = self._dense(t)
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

    def node_rows_and_slope(self, t: int, nodes, U):
        """``node_rows(t, nodes, U)`` and a function ``slope(g)``: d/du of rows @ g, U.shape.

        g broadcasts to the rows.  Drift and scale slopes from ``derivative``
        within each node's control interval move the tent block or the
        quadrature landings; blended rows are linear between control nodes.
        Gaussian rows come from one tent pass, which keeps each block's cell
        masses P and phi at its window nodes: per unit of mean and of std,
        the slope is sum_k (P_k, phi_k - phi_k+1) times g's slope on cell k.
        """
        nodes, shape, grid = np.asarray(nodes, np.intp).reshape(-1), np.shape(U), self.grids[t + 1]
        U = self._feasible(t, nodes, np.asarray(U, dtype=float).reshape(nodes.size, -1))
        i, u = np.repeat(nodes, U.shape[1]), U.reshape(-1)  # one row per control

        def flat(g):
            return np.broadcast_to(g, shape + grid.shape).reshape(u.size, grid.size)

        if self.spec is None or isinstance(self.spec, DiscreteChain):
            def slope(g):
                Uk, k = self.controls[t][i], np.arange(u.size)
                j = np.clip(np.sum(Uk < u[:, None], axis=-1), 1, Uk.shape[1] - 1)
                W = self._dense(t)[i, np.stack([j - 1, j])]
                return (np.einsum("kn,kn->k", W[1] - W[0], flat(g))
                        / (Uk[k, j] - Uk[k, j - 1])).reshape(shape)
            return self._blend(t, nodes, U).reshape(shape + grid.shape), slope
        spec, x, noise = self.spec, self.grids[t][i], self.spec.noise
        mu, sc = spec.landing_params(t, x, u)
        ends = self.controls[t][i][:, [0, -1]].T  # the stencils stay in each interval
        mu_u, sc_u = (derivative(lambda v: f(t, x, v), u, *ends) for f in (spec.drift, spec.scale))
        blocks = []
        W = _landing_rows(grid, mu, sc, noise, keep=blocks)[0].reshape(shape + grid.shape)
        if isinstance(noise, GaussianNoise):
            def slope(g):
                g, (dm, ds) = flat(g).reshape(-1), np.empty((2, u.size))
                for rows, start, phi, P in blocks:
                    dg = np.diff(_sliding(g, len(phi))[rows * grid.size + start].T, axis=0)
                    dg /= _sliding(np.diff(grid), len(phi) - 1)[start].T  # the slope of g on cell k
                    # Line by line, as rows are normalised: einsum sums a one-row block
                    # in another order, and a row's slope would depend on its batch.
                    dm[rows] = functools.reduce(operator.iadd, P * dg)
                    ds[rows] = functools.reduce(operator.iadd, (phi[:-1] - phi[1:]) * dg)
                return ((mu_u + sc_u * noise.mean) * dm + sc_u * noise.std * ds).reshape(shape)
            return W, slope

        def slope(g):
            (wq, omega), g = noise.quadrature(QUAD_ORDER), flat(g)
            landing = mu[:, None] + sc[:, None] * wq  # g' is 0 off the grid
            j = np.clip(np.searchsorted(grid, landing, side="right"), 1, grid.size - 1)
            dg = np.take_along_axis(g, j, -1) - np.take_along_axis(g, j - 1, -1)
            dg *= ((landing > grid[0]) & (landing < grid[-1])) / (grid[j] - grid[j - 1])
            return ((mu_u[:, None] + sc_u[:, None] * wq) * dg @ omega / omega.sum()).reshape(shape)
        return W, slope

    def node_slopes(self, t: int, nodes, U, g) -> np.ndarray:
        """d/du of ``node_rows(t, nodes, U) @ g``, shape U.shape: see ``node_rows_and_slope``."""
        return self.node_rows_and_slope(t, nodes, U)[1](g)

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

    points (..., Q) and masses broadcast to one shape; returns (..., len(grid)).
    One ``np.bincount`` adds every point's left share, then every right
    share, each in point order, so each node sums its shares in a fixed order.
    """
    points = np.asarray(points, dtype=float)
    n, lead = grid.size, points.shape[:-1]
    R = int(np.prod(lead))
    clipped = np.clip(points, grid[0], grid[-1])
    j = np.clip(np.searchsorted(grid, clipped, side="right"), 1, n - 1)
    theta = (clipped - grid[j - 1]) / (grid[j] - grid[j - 1])
    m = np.broadcast_to(np.asarray(masses, dtype=float), points.shape)
    at = j + n * np.arange(R).reshape(lead + (1,))  # flat index of node j in the output
    out = np.bincount(np.concatenate([(at - 1).ravel(), at.ravel()]),
                      np.concatenate([((1 - theta) * m).ravel(), (theta * m).ravel()]),
                      minlength=R * n)
    return out.reshape(lead + (n,))


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


def _gaussian_tent_masses(grid: np.ndarray, mean: np.ndarray, std: np.ndarray,
                          banded: bool = False, keep=None):
    """Landing rows of N(mean, std^2) on ``grid``: exact hat-function masses.

    mean/std have shape (R,); returns the rows, dense (R, len(grid)) or,
    ``banded``, as ``_Bands`` cut from the floored blocks without a dense
    row, and the clamped tail mass (R,), which goes to the end nodes.  In
    z-units, z_k = (x_k - mean) / std, cell k holds the mass P_k and sends
    A_k = (z_{k+1} P_k + phi_{k+1} - phi_k) / (z_{k+1} - z_k) to its left
    node, P_k - A_k to its right.  Each block of ``_tent_blocks`` is
    clipped at 0, normalised by each row's sum taken left to right (line by
    line, or by ``np.add.accumulate`` down the block when it holds fewer
    rows than nodes; ``np.add.reduce`` would sum a lone row pairwise) and
    floored, so rows equal the same arithmetic over the whole grid, bit for
    bit, and do not depend on the batch.  ``keep``, a list if given, gets
    each block's (rows, start, phi, P) once its rows are built, P still the
    cell masses (``node_rows_and_slope``); without it no block outlives the next.
    """
    n = grid.size
    clamp = np.empty(mean.size)

    def windows():
        for rows, start, z, phi, P, lo_tail, hi_tail, block in _tent_blocks(grid, mean, std):
            width = z.shape[0]
            clamp[rows] = lo_tail + hi_tail
            A = (z[1:] * P + phi[1:] - phi[:-1]) / (z[1:] - z[:-1])
            np.subtract(P, A, out=block[1:])  # the right shares; P is left as it is
            block[0] = A[0]
            block[1:-1] += A[1:]
            block[0] += np.where(start == 0, lo_tail, 0.0)
            block[-1] += np.where(start + width == n, hi_tail, 0.0)
            np.maximum(block, 0.0, out=block)
            block /= (functools.reduce(operator.iadd, block[1:], block[0].copy())
                      if rows.size > width else np.add.accumulate(block, axis=0)[-1])
            yield rows, start, _floor(block).T
            if keep is not None:
                keep.append((rows, start, phi, P))
            del z, phi, P, A, block  # freed before the next block is built: peak memory

    return (_banded if banded else _scatter)((mean.size,), n, windows()), clamp


def _sliding(a: np.ndarray, width: int) -> np.ndarray:
    """``sliding_window_view`` of a 1-d array, writeable if it is, without its checks."""
    shape, strides = (a.size - width + 1, width), a.strides * 2
    if a.flags.c_contiguous:  # a view on its buffer costs a fifth of as_strided's
        return np.ndarray(shape, a.dtype, a, 0, strides)
    return as_strided(a, shape, strides)


def _scatter(shape, n: int, windows) -> np.ndarray:
    """Dense rows ``shape`` + (n,) of ``windows``, (rows, start, win) items as ``_banded`` takes."""
    out = np.zeros(tuple(shape) + (n,))
    flat = out.reshape(-1)
    for rows, start, win in windows:
        # Window k of the flat view is flat[k:k + w]; those written lie in distinct rows.
        _sliding(flat, win.shape[1])[rows * n + start] = win
    return out


def _chunks(R: int, n: int, rows):
    """Full-width windows of R rows of n nodes, ``rows(a, b)`` giving rows a..b-1.

    One window per chunk of about ``BAND_CHUNK`` entries, so no more than a
    chunk of rows is built or copied at once.
    """
    step = max(1, BAND_CHUNK // n)
    for a in range(0, R, step):
        b = min(a + step, R)
        yield np.arange(a, b), np.zeros(b - a, dtype=np.intp), rows(a, b)


def _items(a: np.ndarray, width: int) -> np.ndarray:
    """The windows a[k:k + width] of a contiguous 1-d float array as the items of a 1-d view.

    Indexing the view with k moves whole windows, one copy each, which beats
    indexing ``_sliding``'s 2-d view; ``.view(float)`` of a gather gives its floats.
    """
    return np.ndarray((a.size - width + 1,), (np.void, 8 * width), a, 0, a.strides)


class _Bands:
    """Rows of shape ``shape`` stored as bands, by the rule in ``DiscretizedKernel``.

    ``groups`` holds, per band width W, the flat indices of its rows (r,),
    the node each band starts at (r,) and the bands (r, W).  An array-like:
    ``np.asarray`` gives the dense rows.
    """

    def __init__(self, shape, groups):
        self.shape, self.groups = tuple(shape), groups

    def __array__(self, dtype=None, copy=None):
        return self.dense() if dtype is None else self.dense().astype(dtype, copy=False)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for group in self.groups for a in group)

    def dense(self) -> np.ndarray:
        return self.dense_rows(0, int(np.prod(self.shape[:-1]))).reshape(self.shape)

    def dense_rows(self, a: int, b: int) -> np.ndarray:
        """The dense rows of flat indices a..b-1, (b - a, n)."""
        def windows():
            for rows, start, band in self.groups:
                lo, hi = np.searchsorted(rows, (a, b))  # a group's rows are in increasing order
                if hi > lo:
                    yield rows[lo:hi] - a, start[lo:hi], band[lo:hi]

        return _scatter((b - a,), self.shape[-1], windows())

    def dot(self, v: np.ndarray) -> np.ndarray:
        """Rows of node k against each v[:, k], v (c, K, n) with K the leading size: (c,) + rows."""
        c, K, n = v.shape
        flat = np.ascontiguousarray(v).reshape(c, K * n)
        per = int(np.prod(self.shape[1:-1]))  # rows per node
        out = np.empty((c, K * per))
        for rows, start, band in self.groups:
            _band_dot(out, rows, rows // per * n + start, band, flat)
        return out.reshape((c,) + self.shape[:-1])


def _band_dot(out, rows, off, band, flat):
    """out[:, rows] = each band (r, W) dotted with the window at ``off`` of each line of flat.

    ``flat`` is (c, L); one einsum per chunk of rows and line: a row's sum
    runs in an order set by W alone.
    """
    W = band.shape[1]
    windows = [_items(f, W) for f in flat]
    step = max(1, BAND_CHUNK // W)  # the gather stays in cache
    for a in range(0, rows.size, step):
        b, r, o = band[a:a + step], rows[a:a + step], off[a:a + step]
        for j, w in enumerate(windows):
            out[j, r] = np.einsum("rk,rk->r", b, w[o].view(float).reshape(-1, W))


def _dense_dot(D: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_Bands.dot`` of dense rows D (K, ..., n), banded by the same rule on the way in."""
    c, K, n = v.shape
    D2 = np.ascontiguousarray(D, dtype=float).reshape(-1, n)
    width, begin, off = _cut(D2 != 0.0, 0, 0, n)
    flat, per = np.ascontiguousarray(v).reshape(c, K * n), D2.shape[0] // K
    out = np.empty((c, D2.shape[0]))
    for W in np.flatnonzero(np.bincount(width)).tolist():
        r = np.flatnonzero(width == W)
        band = _items(D2.reshape(-1), W)[off[r]].view(float).reshape(-1, W)
        _band_dot(out, r, r // per * n + begin[r], band, flat)
    return out.reshape((c,) + D.shape[:-1])


def _cut(nz: np.ndarray, p: int, start, n: int):
    """Each row's band by the rule in ``DiscretizedKernel``: (width, first node, flat offset).

    Row r of the mask ``nz`` (r, w + 2p) marks the nonzero weights of its
    row's nodes from start[r] - p on; a row of zeros gets a band from start[r].
    """
    has = nz.any(axis=1)
    first = np.where(has, nz.argmax(axis=1), p)
    last = np.where(has, nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1), p)
    width = np.minimum(-(-(last - first + 1) // BAND_ALIGN) * BAND_ALIGN, n)
    node0 = start - p  # the node of the mask's first column
    begin = np.minimum(node0 + first, n - width)
    return width, begin, np.arange(nz.shape[0]) * nz.shape[1] + begin - node0


def _banded(shape, n: int, windows) -> _Bands:
    """Bands of rows ``shape`` + (n,) given as ``windows``: (rows, start, win) items.

    win (r, w) holds flat rows ``rows`` on nodes start .. start + w - 1; the
    rows are zero elsewhere.  Bands of one width are gathered per item, then
    joined one width at a time.
    """
    pieces = {}
    for rows, start, win in windows:
        r, w = win.shape
        p = 0 if w == n else BAND_ALIGN  # room for bands that overhang their window
        if p or not win.flags.c_contiguous:
            pad = np.zeros((r, w + 2 * p))
            pad[:, p:p + w] = win
        else:
            pad = win
        width, begin, off = _cut(pad != 0.0, p, start, n)
        flat = pad.reshape(-1)
        for W in np.flatnonzero(np.bincount(width)).tolist():
            sel = np.flatnonzero(width == W)
            pieces.setdefault(W, []).append(
                (rows[sel], begin[sel], _items(flat, W)[off[sel]].view(float).reshape(-1, W)))
        del pad, flat
    groups = []
    for W in sorted(pieces):  # rows in increasing order, so a gather walks its vectors forward
        parts = pieces.pop(W)
        if len(parts) == 1:
            rows, begin, band = parts.pop()
            if np.any(rows[1:] < rows[:-1]):
                order = np.argsort(rows)
                rows, begin, band = rows[order], begin[order], band[order]
            groups.append((rows, begin, band))
            continue
        rows = np.concatenate([part[0] for part in parts])
        order = np.argsort(rows)
        dest = np.empty_like(order)
        dest[order] = np.arange(order.size)
        begin, band, at = np.empty_like(rows), np.empty((rows.size, W)), 0
        while parts:
            r, b, v = parts.pop(0)
            begin[dest[at:at + r.size]], band[dest[at:at + r.size]] = b, v
            at += r.size
        groups.append((rows[order], begin, band))
    return _Bands(tuple(shape) + (n,), groups)


def _dense_bands(D: np.ndarray) -> _Bands:
    """Bands of dense rows D (..., n), floored: ``_banded`` cuts a floored copy of each chunk."""
    n = D.shape[-1]
    flat = D.reshape(-1, n)
    floored = _chunks(flat.shape[0], n, lambda a, b: _floor(flat[a:b].copy()))
    return _banded(D.shape[:-1], n, floored)


class _Slices(Sequence):
    """Dense slices W[t] (n_t, M, n_{t+1}) of a kernel's bands, each built when read, none kept."""

    def __init__(self, bands):
        self._bands = bands

    def __len__(self):
        return len(self._bands)

    def __getitem__(self, t):
        return self._bands[t].dense()


def _landing_rows(grid: np.ndarray, mu: np.ndarray, sc: np.ndarray, noise: Noise,
                  banded: bool = False, keep=None):
    """Landing rows mu.shape + (len(grid),) for the laws mu + sc * W, and their clamped mass.

    ``mu`` and ``sc`` are float arrays of one shape.  Gaussian noise gets
    closed-form hat-function masses (``keep`` goes to ``_gaussian_tent_masses``);
    other noise spreads its ``QUAD_ORDER`` quadrature points onto the grid, a
    chunk of about ``BAND_CHUNK`` entries at a time.  Weights below
    ``WEIGHT_FLOOR`` become 0.  The rows come dense, or ``banded`` as
    ``_Bands`` built without a dense slice.
    """
    shape = mu.shape + grid.shape
    if isinstance(noise, GaussianNoise):
        W, clamp = _gaussian_tent_masses(grid, (mu + sc * noise.mean).reshape(-1),
                                         (sc * noise.std).reshape(-1), banded=banded, keep=keep)
        return (_Bands(shape, W.groups) if banded else W.reshape(shape)), clamp.reshape(mu.shape)
    landing, omega, clamp = _quadrature_landing(grid, mu, sc, noise)
    windows = _chunks(landing.shape[0], grid.size, lambda a, b: _spread(grid, landing[a:b], omega))
    return (_banded if banded else _scatter)(mu.shape, grid.size, windows), clamp


def _quadrature_landing(grid: np.ndarray, mu: np.ndarray, sc: np.ndarray, noise: Noise):
    """The ``QUAD_ORDER`` landing points per law, (mu.size, Q), their weights and clamped mass."""
    wq, omega = noise.quadrature(QUAD_ORDER)
    if not (np.all(np.isfinite(wq)) and np.all(np.isfinite(omega))):
        raise KernelError("non-finite quadrature rule")
    landing = mu[..., None] + sc[..., None] * wq
    inside = (landing >= grid[0]) & (landing <= grid[-1])
    return landing.reshape(-1, wq.size), omega, np.sum(np.where(inside, 0.0, omega), axis=-1)


def _spread(grid: np.ndarray, landing: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Normalised, floored rows (R, len(grid)) of points ``landing`` (R, Q) weighing ``omega``."""
    W = spread_mass(grid, landing, omega)
    np.maximum(W, 0.0, out=W)
    W /= W.sum(axis=-1, keepdims=True)
    return _floor(W)


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
    kernel reloaded from its cache equals the one saved.  Rows are stored as
    bands (see ``DiscretizedKernel``), and checked there.
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
            weights.append(P)  # floored and banded by DiscretizedKernel
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
        B, clamp = _landing_rows(grids[t + 1], mu, sc, kernel.noise, banded=True)
        weights.append(B)
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
    rule: str                 # what judged ``converged``: "tv_bound" or "shrinkage"


def setwise_continuity_probe(kernel: AdditiveNoise, t: int, x: float, u: float,
                             u_seq: Sequence[float], V_family, M: float,
                             samples: int = 4096,
                             seed: int = 0) -> ProbeReport:
    """Check |E_{u_k}[V] - E_u[V]| <= M * TV(u_k, u) and gap decay along u_k -> u.

    Members of V_family must satisfy |V| <= M (spot-checked by sampling).
    Where every u_k has a TV bound, the gaps converge when none exceeds its
    bound and the bound at the nearest u_k is at most 5 % of the bound at
    the farthest (rule "tv_bound"): the bounds prove the decay.  Degenerate
    (zero-scale) controls are admitted: they have no TV bound, and then the
    worst gap itself must shrink (rule "shrinkage").
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

    dist = np.abs(u_seq - u)
    worst = gaps.max(axis=1)
    order = np.argsort(dist)[::-1]  # far to near
    if with_bound.all():
        rule = "tv_bound"
        converged = not violated and bool(tvb[order[-1]] <= 0.05 * tvb[order[0]])
    else:
        # Shrinkage heuristic: as |u_k - u| halves, the worst gap must not grow
        # by more than 10%, and the final gap must approach 0.
        rule, converged = "shrinkage", True
        for a, b in zip(order[:-1], order[1:]):
            if dist[a] > 0 and dist[b] <= 0.5 * dist[a] + 1e-15:
                if worst[b] > 1.1 * worst[a] + 1e-12:
                    converged = False
        if worst[order[-1]] > max(0.05 * worst[order[0]], 1e-9):
            converged = False
    return ProbeReport(gaps=gaps, tv_bounds=tvb, bound_violated=violated,
                       converged=converged, limit_values=limit, rule=rule)


# ---------------------------------------------------------------------------
# Binary cache
# ---------------------------------------------------------------------------
#
# Layout (little-endian):
#   magic b"MKEQDK03"
#   uint32 T
#   uint32 build method: 0 blend, 1 exact, 2 quadrature (``build_method``)
#   uint32 quadrature order (``QUAD_ORDER``)
#   per t in 0..T-2:
#     uint32 n_t, uint32 M_u, uint32 n_next
#     float64[n_t]                 state grid at t
#     float64[n_t * M_u]           control nodes, row-major
#     float64[n_t * M_u]           clamped mass, row-major
#     uint32 G                     band groups, then per group (``_Bands.groups``):
#       uint32 W, uint32 r         band width and row count
#       int64[r]                   flat row indices (i * M_u + j), increasing
#       int64[r]                   the node each band starts at
#       float64[r * W]             the bands, row-major
#   float64[n_T]                   terminal state grid, then the end of the file
# So a file holds ``dk.nbytes`` + 20 + sum over t of (16 + 8 G) bytes.  Every
# stored band is floored, so no weight in the file is nonzero and below
# ``WEIGHT_FLOOR``.  Versions 1 and 2 (magic b"MKEQDK01", b"MKEQDK02"), which
# held each slice's rows dense, are no longer read.

_MAGIC = b"MKEQDK03"
_METHODS = ("blend", "exact", "quadrature")


def save_kernel_cache(dk: DiscretizedKernel, path):
    """Write ``dk`` to ``path`` in the version-3 layout above: each slice's bands as stored."""
    def raw(X, dtype="<f8"):  # the array's own buffer when it is already contiguous
        fh.write(memoryview(np.ascontiguousarray(X, dtype=dtype)))

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", dk.horizon, _METHODS.index(dk.build_method), QUAD_ORDER))
        for t, B in enumerate(dk._bands):
            fh.write(struct.pack("<III", *B.shape))
            raw(dk.grids[t])
            raw(dk.controls[t])
            raw(dk.clamped[t])
            fh.write(struct.pack("<I", len(B.groups)))
            for rows, start, band in B.groups:
                fh.write(struct.pack("<II", band.shape[1], band.shape[0]))
                raw(rows, "<i8")
                raw(start, "<i8")
                raw(band)
        raw(dk.grids[-1])


def load_kernel_cache(path, spec: Optional[KernelSpec] = None) -> DiscretizedKernel:
    """Load a cached kernel; pass the original spec to restore exact off-node rows.

    Off-node rows are built by the spec's rule, as in ``discretize``; the
    build fields of the header are read only to reject unknown codes.  Only
    version 3 is read, each section once, straight into its final array: the
    bands are the kernel's as saved.  The header is not trusted: every
    dimension must be at least 1, each section's bytes must fit in what is
    left of the file before it is allocated, each slice must start on the
    grid the one before it lands on, each band group must hold bands of 1
    to n_next nodes that lie in the row, on rows in increasing order, every
    row in exactly one group, with no weight that is nonzero and below
    ``WEIGHT_FLOOR``, and the file must end with the terminal state grid;
    otherwise KernelError names the file, t and the section.  With an
    ``AdditiveNoise`` spec, the rows of the first and last state node at
    every cached control are rebuilt from it; rows off by more than
    ``CACHE_SPEC_TOL`` mean the cache came from another kernel, and raise
    KernelError rather than mix the two.
    """

    def fail(msg):
        raise KernelError(f"kernel cache {path}: {msg}")

    def fit(size, what):
        left = end - fh.tell()
        if size > left:
            raise KernelError(f"truncated kernel cache {path}: {what} needs {size} bytes, "
                              f"found {left}")
        return size

    def unpack(fmt, what):
        return struct.unpack(fmt, fh.read(fit(struct.calcsize(fmt), what)))

    def array(shape, what, dtype="<f8"):
        size = fit(8 * int(np.prod(shape)), what)
        arr = np.empty(shape, dtype=dtype)
        if fh.readinto(memoryview(arr).cast("B")) < size:  # the file shrank since fit()
            fail(f"{what} was cut short while it was read")
        if dtype == "<f8" and not np.all(np.isfinite(arr)):
            fail(f"non-finite {what}")
        return arr

    def bands(n, M, nn, t):
        (G,) = unpack("<I", f"band group count at t={t}")
        groups, seen = [], np.zeros(n * M, dtype=bool)
        for g in range(G):
            what = f"band group {g} at t={t}"
            W, r = unpack("<II", f"header of {what}")
            if not (1 <= W <= nn and r >= 1):
                fail(f"{what} has {r} rows of width {W}; rows land on {nn} nodes")
            rows, start = array(r, f"rows of {what}", "<i8"), array(r, f"starts of {what}", "<i8")
            if not (rows[0] >= 0 and rows[-1] < n * M and np.all(rows[1:] > rows[:-1])):
                fail(f"rows of {what} are not increasing indices below {n * M}")
            if not (np.all(start >= 0) and np.all(start <= nn - W)):
                fail(f"starts of {what} leave [0, {nn - W}]")
            if np.any(seen[rows]):
                fail(f"{what} holds row {rows[seen[rows]][0]}, which an earlier group holds")
            seen[rows] = True
            band = array((r, W), f"weights of {what}")
            low = band[(band < WEIGHT_FLOOR) & (band != 0.0)]
            if low.size:
                fail(f"weights of {what} hold {low[0]:.3e}, nonzero and below WEIGHT_FLOOR")
            groups.append((rows, start, band))
        if not seen.all():
            fail(f"the {G} band groups at t={t} hold no row {np.argmin(seen)}")
        return _Bands((n, M, nn), groups)

    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic in (b"MKEQDK01", b"MKEQDK02"):
            fail(f"version {int(magic[6:])} is no longer read; save the kernel again")
        if magic != _MAGIC:
            fail("not a kernel cache file")
        (T,) = unpack("<I", "horizon")
        if T < 2:
            raise KernelError(f"kernel cache {path} declares horizon {T} < 2")
        code, _ = unpack("<II", "build header")
        if code >= len(_METHODS):
            raise KernelError(f"kernel cache {path} names unknown build method {code}")
        weights, controls, grids, clamped = [], [], [], []
        nn = None
        for t in range(T - 1):
            shape = unpack("<III", f"shape header at t={t}")
            if min(shape) < 1:
                fail(f"shape header at t={t} has a zero dimension: {shape}")
            if nn is not None and shape[0] != nn:
                fail(f"shape header at t={t} has {shape[0]} state nodes, but the rows at "
                     f"t={t - 1} land on {nn}")
            n, M, nn = shape
            grids.append(array((n,), f"state grid at t={t}"))
            controls.append(array((n, M), f"control nodes at t={t}"))
            clamped.append(array((n, M), f"clamped mass at t={t}"))
            weights.append(bands(n, M, nn, t))
        grids.append(array((nn,), "terminal state grid"))
        if fh.tell() != end:
            fail(f"{end - fh.tell()} bytes follow the terminal state grid, which ends the "
                 f"slices t=0..{T - 2}")
    dk = DiscretizedKernel(weights, controls, grids, clamped, spec=spec)
    try:
        dk.check_rows()
    except KernelError as exc:
        raise KernelError(f"kernel cache {path}: {exc}") from None
    if isinstance(spec, AdditiveNoise):
        for t, B in enumerate(weights):
            n, M, _ = B.shape
            ends = np.array([0, n - 1])
            d = np.max(np.abs(dk.node_rows(t, ends, controls[t][ends])
                              - np.stack([B.dense_rows(i * M, i * M + M) for i in ends])))
            if not d <= CACHE_SPEC_TOL:
                raise KernelError(f"kernel cache {path} was not built from this kernel: "
                                  f"rows at t={t} differ by {d:.3e}")
    return dk
