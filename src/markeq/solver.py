"""Backward induction on the reduced equilibrium recursion.

At each decision time t, with the continuation policy for t+1..T-2
already fixed, the per-node objective is

    L(t, i, u) = C_t(t, x_i, x_i, u)
                 + E_u[ sum_k b_k(t, x_i, .) + f(t, x_i, .) ]
                 + G(t, x_i, E_u[h(.)])

where b_k, f, h are conditional expectations of the running cost at k,
the terminal cost, and the terminal statistic under the frozen tail.
``build_aux`` tabulates them on the time-(t+1) grid by one backward sweep
of the one-step tower recursion under the tail policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import SolverError
from .kernels import DiscreteChain, DiscretizedKernel, derivative, policy_matrix
from .model import Model, Policy

GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))  # interior fraction of golden-section search
GOLDEN_MAX_ITER = 200  # cap on Brent steps; golden steps alone shrink a unit bracket to 1e-9 in 43
SEARCH_MAX_ITER = 100  # cap on slope-search steps; bisection narrows 1 to 1e-9 in 30
LEVELSET_PROBES = 2001  # probe controls per levelset_probe window
U_TOL = 1e-9  # refinement tolerance: a search ending this close to its grid node keeps the node
NOISE = 64.0 * np.finfo(float).eps  # relative noise floor of objective values


def golden_section(f, lo: float, hi: float, tol: float = U_TOL):
    """Minimize a scalar f on [lo, hi]; returns (argmin, min) as floats.  Deterministic.

    Brent's method (Brent, 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): a parabola through the three best points so far
    sets each step, and a golden-section step replaces it whenever it
    falls outside the bracket or fails to halve the step before last.
    Steps are at least ``tol / 4`` long, and the search stops once the
    bracket is within ``tol``.  A 9-point least-squares parabola over
    [lo, hi] then polishes the result.
    """
    a, b = lo, hi = float(lo), float(hi)
    # x is the best point, w the second best and v the previous w.
    x = w = v = a + GOLDEN * (b - a)
    fx = fw = fv = float(f(x))
    d = e = 0.0
    step = 0.25 * tol
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p if q > 0.0 else p), abs(q)
        if abs(e) > step and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            # A parabolic point within 2 * step of an end moves step toward the middle.
            if x + d - a < 2.0 * step or b - x - d < 2.0 * step:
                d = step if mid >= x else -step
        else:
            e = (a if x >= mid else b) - x
            d = GOLDEN * e
        u = x + (d if abs(d) >= step else (step if d >= 0.0 else -step))
        fu = float(f(u))
        # The bracket shrinks to the side of x (better) or of u (worse) that holds the minimum.
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    # Parabolic polish: near the minimum the objective differences sit at
    # the noise floor, so the steps above wander by ~sqrt(eps/curvature).
    # A least-squares parabola over the bracket averages that noise out and
    # is exact for quadratics.  Its 9 points sit at offsets z * h, z = -4..4,
    # so the fit of f ~ c0 + c1 z + c2 z^2 has a closed form.
    xs = np.linspace(lo, hi, 9)
    fs = np.array([f(u) for u in xs], dtype=float)
    dv = fs - fs[4]  # drop the common level before summing
    z = np.arange(-4.0, 5.0)
    c1 = dv @ z / 60.0
    c2 = (9.0 * (dv @ (z * z)) - 60.0 * dv.sum()) / 2772.0
    if c2 > 0.0:
        xv = min(max(float(xs[4] - 0.5 * (hi - lo) / 8.0 * c1 / c2), lo), hi)
        fv = float(f(xv))
        # The search's value can sit below the true minimum by the noise
        # floor: the vertex gets that much slack.  fx is always f(x).
        if fv <= fx + NOISE * (np.max(np.abs(fs)) + 1.0):
            x, fx = xv, fv
    return x, fx


def slope_search(f, U3: np.ndarray, L3: np.ndarray, tol: float = U_TOL):
    """Minimize k objectives on [a, b] around x; U3 (k, 3) holds (a, x, b), L3 the values there.

    ``f(i, u)`` gives (L, L') of objectives i at u (m,).  The first point of
    every objective is the vertex of the parabola through its three values
    (the midpoint of [a, b] if that parabola has no positive curvature or
    its vertex is not strictly inside), even when the vertex is x itself:
    L' at x is never taken.  A Newton step on the parabola's curvature
    follows, then secant steps on L'; a step that would leave the sign
    bracket (shrunk on evaluated slopes only) bisects it.  An objective
    stops once a step or its bracket is under ``tol``, at its last point.
    """
    (lo, x, hi), (fa, fx, fb) = U3.T, L3.T
    sa = (fx - fa) / (x - lo)  # the chord slope left of x
    c2 = 2.0 * ((fb - fx) / (hi - x) - sa) / (hi - lo)
    c2 = np.where(c2 > 0.0, c2, np.nan)  # no curvature: bisect
    u = 0.5 * (lo + x) - sa / c2  # the parabola's vertex
    u = np.where((u > lo) & (u < hi), u, 0.5 * (lo + hi))
    v, d = f(np.arange(u.size), u)
    step = -d / c2
    for _ in range(SEARCH_MAX_ITER):
        lo, hi = np.where(d < 0.0, u, lo), np.where(d > 0.0, u, hi)
        live = np.flatnonzero(~(np.abs(step) < tol) & (hi - lo >= tol))
        if live.size == 0:
            break
        nxt = u[live] + step[live]
        nxt = np.where((nxt > lo[live]) & (nxt < hi[live]), nxt, 0.5 * (lo[live] + hi[live]))
        v[live], dn = f(live, nxt)
        with np.errstate(divide="ignore", invalid="ignore"):  # equal slopes: bisect
            step[live] = -dn * (nxt - u[live]) / (dn - d[live])
        u[live], d[live] = nxt, dn
    return u, v


@dataclass
class AuxiliaryBundle:
    """Grid tabulations of the auxiliary functions under a frozen tail.

    ``btot[i, n]`` holds sum_k b_k(s, x_i, x_n) + f(s, x_i, x_n) for x_i on
    the time-s grid (s = ``eval_time``) and x_n on the time-(t+1) grid;
    ``h_next[n]`` is h on the time-(t+1) grid.
    """

    eval_time: int
    h_next: np.ndarray
    btot: np.ndarray


def build_aux(model: Model, dk: DiscretizedKernel, tail_policy: Optional[Policy],
              t: int, eval_time: Optional[int] = None,
              steps: Optional[List[Optional[np.ndarray]]] = None) -> AuxiliaryBundle:
    """Tabulate the auxiliary functions for decision time t.

    ``tail_policy`` must be feasible at times t+1..T-2 (None allowed when
    t = T-2, where the bundle degenerates to terminal costs).  One backward
    sweep applies the tower property with P_k, the one-step matrix under
    the tail at time k: h <- P_k h and btot <- btot P_k^T + C_k for
    k = T-2 down to t+1, starting from H and F on the terminal grid.
    ``steps[k]``, if given, is P_k, already built; otherwise it is built here.
    """
    T = model.T
    if not 0 <= t <= T - 2:
        raise SolverError(f"decision time {t} out of range")
    s = t if eval_time is None else eval_time
    ys = model.grids[s][:, None]
    xT = model.grids[-1]
    h_next = model.costs.terminal_stat(xT)
    btot = model.costs.terminal(s, ys, xT[None, :])
    for k in range(T - 2, t, -1):
        if tail_policy is None or tail_policy.controls[k] is None:
            raise SolverError(f"tail policy missing controls at time {k}")
        uk = tail_policy.controls[k]
        Pk = policy_matrix(dk, k, uk) if steps is None else steps[k]
        h_next = Pk @ h_next
        btot = btot @ Pk.T + model.costs.running(k, s, ys, model.grids[k][None, :], uk[None, :])
    if not np.all(np.isfinite(btot)) or not np.all(np.isfinite(h_next)):
        raise SolverError("auxiliary tabulation is non-finite")
    return AuxiliaryBundle(eval_time=s, h_next=h_next, btot=btot)


def _assemble(model: Model, aux: AuxiliaryBundle, t: int, nodes: np.ndarray,
              U: np.ndarray, e: np.ndarray) -> np.ndarray:
    """L = C + E[sum b_k + f] + G(E[h]) at controls U (k, P), with e = ``_expect``'s (2, k, P)."""
    x = model.grids[t][nodes][:, None]
    c = model.costs.running(t, aux.eval_time, x, x, U)
    return c + e[0] + model.costs.mixer(aux.eval_time, x, e[1])


def _expect(dk: DiscretizedKernel, aux: AuxiliaryBundle, t: int, nodes: np.ndarray,
            rows=None) -> np.ndarray:
    """(E[sum b_k + f], E[h]) under the rows of ``nodes`` (k,): ``dk.expect`` per node.

    ``rows`` (k, P, n_{t+1}), or the stored rows when None.  A row's value
    depends on that row alone, so L on the grid is objective_nodes at the
    same controls, bit for bit, whatever the batch.
    """
    v = np.empty((2, nodes.size, aux.h_next.size))
    v[0], v[1] = aux.btot[nodes], aux.h_next
    return dk.expect(t, v, rows)


def objective_grid(model: Model, dk: DiscretizedKernel, aux: AuxiliaryBundle,
                   t: int) -> np.ndarray:
    """L on the full control grid: shape (n_t, M_u).

    Requires aux built at eval_time = t (the Bellman case).
    """
    nodes = np.arange(model.grids[t].size)
    return _assemble(model, aux, t, nodes, dk.controls[t], _expect(dk, aux, t, nodes))


def objective_nodes(model: Model, dk: DiscretizedKernel, aux: AuxiliaryBundle,
                    t: int, nodes, u) -> np.ndarray:
    """L(t, x_i, x_i, u) for node indices ``nodes`` (k,) and controls u, (k,) or (k, P).

    Controls may be off the grid; row r of u belongs to node nodes[r].
    """
    nodes = np.asarray(nodes, dtype=np.intp).reshape(-1)
    u = np.asarray(u, dtype=float)
    U = u.reshape(nodes.size, -1)
    e = _expect(dk, aux, t, nodes, dk.node_rows(t, nodes, U))
    return _assemble(model, aux, t, nodes, U, e).reshape(u.shape)


def _objective_slope(model: Model, dk: DiscretizedKernel, aux: AuxiliaryBundle,
                     t: int, nodes: np.ndarray, u: np.ndarray) -> tuple:
    """(L, dL/du) at nodes (k,), controls u (k,); dL/du = c_u + rows_u . (btot_i + G' h)."""
    x, s = model.grids[t][nodes], aux.eval_time
    rows, slope = dk.node_rows_and_slope(t, nodes, u)
    e = _expect(dk, aux, t, nodes, rows[:, None])
    g_h = derivative(lambda h: model.costs.mixer(s, x, h), e[1][:, 0])
    return (_assemble(model, aux, t, nodes, u[:, None], e)[:, 0],
            derivative(lambda w: model.costs.running(t, s, x, x, w), u,
                       *dk.controls[t][nodes][:, [0, -1]].T)
            + slope(aux.btot[nodes] + g_h[:, None] * aux.h_next))


def objective_L(model: Model, dk: DiscretizedKernel, aux: AuxiliaryBundle,
                t: int, i: int, u: float) -> float:
    """L(t, x_i, x_i, u) for one node and a (possibly off-grid) control value."""
    return float(objective_nodes(model, dk, aux, t, [i], [u])[0])


def refine_bowls(kernel, L: np.ndarray, U: np.ndarray, objective, tol: float = U_TOL,
                 rows=None, where=None):
    """The one step minimiser: grid argmin per row, then off-grid refinement.

    ``L`` (R, M) is the objective at the control nodes ``U`` (R, M).  The
    first argmin j over the finite entries (the smallest control) is taken;
    a row with none raises SolverError.  Unless ``kernel`` is a
    ``DiscreteChain`` (rows only at the control nodes), each row r of
    ``rows`` (default: all) with interior j gets a ``slope_search`` on
    [U[r, j-1], U[r, j+1]] from its three grid values, batched, where
    ``objective(r, u)`` gives (L, L') of rows r at u, both (k,).  A
    non-finite value or slope, or bracket end in L, raises SolverError.
    A search replaces its node only if it moved more than ``tol`` (a finite
    number > 0, else SolverError) and is strictly lower.  ``where(r)`` names
    row r in errors (default "row r").  Returns (j, u, v, refined): argmin,
    control and value per row, and the replaced rows in the order of ``rows``.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise SolverError(f"refinement tolerance must be a finite number > 0, got {tol!r}")
    where = where or (lambda r: f"row {r}")
    finite = np.isfinite(L)
    empty = np.flatnonzero(~finite.any(axis=1))
    if empty.size:
        raise SolverError(f"objective non-finite at every control node of {where(empty[0])}")
    R, M = L.shape
    j = np.argmin(np.where(finite, L, np.inf), axis=1)
    u, v = U[np.arange(R), j], L[np.arange(R), j]
    r = np.arange(R) if rows is None else np.asarray(rows, dtype=np.intp)
    r = r[(j[r] > 0) & (j[r] < M - 1)]
    if isinstance(kernel, DiscreteChain) or r.size == 0:
        return j, u, v, r[:0]

    def check(rs, x, val, what="objective"):
        if not np.all(np.isfinite(val)):
            k = tuple(np.argwhere(~np.isfinite(val))[0])
            raise SolverError(f"non-finite {what} in {where(rs[k[0]])}, u={x[k]}")

    def checked(i, x):
        val, slope = objective(r[i], x)
        check(r[i], x, val)
        check(r[i], x, slope, "objective slope")
        return val, slope

    three = r[:, None], j[r, None] + np.arange(-1, 2)  # each bracket's ends and node
    check(r, U[three], L[three])
    u_ref, v_ref = slope_search(checked, U[three], L[three], tol)
    take = (np.abs(u_ref - u[r]) > tol) & (v_ref < v[r])
    r = r[take]
    u[r], v[r] = u_ref[take], v_ref[take]
    return j, u, v, r


@dataclass
class StepDiagnostics:
    boundary_nodes: List[int] = field(default_factory=list)
    refined_nodes: List[int] = field(default_factory=list)


def bellman_step(model: Model, dk: DiscretizedKernel, aux: AuxiliaryBundle,
                 t: int, u_tol: float = U_TOL):
    """Minimize L per node over the control grid and refine it off the grid.

    ``refine_bowls`` makes every decision of the step, row i being node i.
    Returns (controls, values, StepDiagnostics).
    """
    j, controls, values, refined = refine_bowls(
        model.kernel, objective_grid(model, dk, aux, t), dk.controls[t],
        lambda r, u: _objective_slope(model, dk, aux, t, r, u), u_tol,
        where=lambda i: f"node {i} at t={t}")
    edge = (j == 0) | (j == dk.controls[t].shape[1] - 1)
    return controls, values, StepDiagnostics(boundary_nodes=np.flatnonzero(edge).tolist(),
                                             refined_nodes=refined.tolist())


@dataclass
class Diagnostics:
    boundary_hits: List[tuple] = field(default_factory=list)   # (t, node)
    refined: List[tuple] = field(default_factory=list)
    clamped_mass: Optional[float] = None


@dataclass
class EquilibriumSolution:
    policy: Policy
    values: List[np.ndarray]      # V_t on the time-t grid, t = 0..T-2
    diagnostics: Diagnostics


@dataclass
class SolveOptions:
    u_tol: float = U_TOL  # refinement tolerance of bellman_step


def solve(model: Model, dk: DiscretizedKernel,
          options: Optional[SolveOptions] = None) -> EquilibriumSolution:
    """Equilibrium policy by backward induction, t = T-2 down to 0.

    Each tail step matrix P_t is built once, when the policy at t is set.
    """
    options = options or SolveOptions()
    T = model.T
    policy = Policy(controls=[None] * (T - 1))
    values: List[Optional[np.ndarray]] = [None] * (T - 1)
    steps: List[Optional[np.ndarray]] = [None] * (T - 1)  # P_t, once the policy at t is set
    diag = Diagnostics()
    for t in range(T - 2, -1, -1):
        aux = build_aux(model, dk, policy if t < T - 2 else None, t, steps=steps)
        controls, vals, step_diag = bellman_step(model, dk, aux, t, options.u_tol)
        if t > 0:
            steps[t] = policy_matrix(dk, t, controls)
        policy.controls[t] = controls
        values[t] = vals
        diag.boundary_hits.extend((t, i) for i in step_diag.boundary_nodes)
        diag.refined.extend((t, i) for i in step_diag.refined_nodes)
    if dk.clamped:
        diag.clamped_mass = model.clamp_diagnostic(dk)
    return EquilibriumSolution(policy=policy, values=values, diagnostics=diag)


def value_identity_check(model: Model, dk: DiscretizedKernel,
                         solution: EquilibriumSolution, t: int) -> float:
    """Max-abs residual of the value identity at time t+1.

    V_{t+1}(x) must equal sum_k b_k(t+1, x, x) + f(t+1, x, x)
    + G(t+1, x, h(x)), with the auxiliaries rebuilt at evaluation points
    (s, y) = (t+1, x).
    """
    T = model.T
    if not 0 <= t <= T - 3:
        raise SolverError("value identity is defined for t <= T-3")
    xs = model.grids[t + 1]
    # Aux for decision time t tabulates b_k, f, h on the time-(t+1) grid;
    # built at s = t+1 its evaluation states are that same grid, so the
    # identity is a diagonal read.  The sweep's last step adds C_{t+1} at
    # the tail's own (possibly refined, off-node) control, which is the
    # control V_{t+1} was taken at.
    aux = build_aux(model, dk, solution.policy, t, eval_time=t + 1)
    rhs = np.diag(aux.btot) + model.costs.mixer(t + 1, xs, aux.h_next)
    lhs = solution.values[t + 1]
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class LevelSetReport:
    r: float
    probe_window: tuple
    intervals: List[tuple]        # (u_lo, u_hi) components of the sublevel set
    touches_boundary: bool
    min_value: float
    suspect_non_inf_compact: bool


def levelset_probe(model: Model, dk: DiscretizedKernel, aux: AuxiliaryBundle,
                   t: int, i: int, r: float,
                   window: Optional[tuple] = None) -> LevelSetReport:
    """Sublevel set {u : L(t, i, u) <= r} on a fine probe grid.

    ``window`` may extend past the modeled control interval; the kernel
    part of L then clamps to the nearest control node while costs are
    evaluated at the raw u, which is exactly what exposes objectives whose
    minimum escapes the modeled window.
    """
    U = dk.controls[t][i]
    lo, hi = (float(U[0]), float(U[-1])) if window is None else (float(window[0]),
                                                                 float(window[1]))
    us = np.linspace(lo, hi, LEVELSET_PROBES)
    nodes = np.full(LEVELSET_PROBES, i)
    rows = dk.node_rows(t, nodes, np.clip(us, U[0], U[-1])[:, None])
    vals = _assemble(model, aux, t, nodes, us[:, None], _expect(dk, aux, t, nodes, rows))[:, 0]
    inside = vals <= r
    # Runs of probes inside the set start at the +1 and end at the -1 edges.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(int), [0]))))
    intervals = [(float(us[a]), float(us[b - 1])) for a, b in zip(edges[::2], edges[1::2])]
    touches = bool(inside[0] or inside[-1])
    return LevelSetReport(r=r, probe_window=(lo, hi), intervals=intervals,
                          touches_boundary=touches, min_value=float(vals.min()),
                          suspect_non_inf_compact=touches)
