"""Independent policy evaluation and the subgame-perfect deviation test.

Everything here evaluates objectives by *forward* propagation of state
distributions (or Monte Carlo simulation of the true noise), independent
of the solver's backward flow-matrix contractions.  It also provides the
two time-consistent baselines -- precommitment and naive -- used to
demonstrate the failure of the dynamic-programming principle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ModelError
from .kernels import AdditiveNoise, DiscreteChain, DiscretizedKernel, policy_matrix
from .model import Model, Policy
from .solver import EquilibriumSolution, refine_bowls


def eval_objective_exact(model: Model, dk: DiscretizedKernel, policy: Policy,
                         t: int, i: int) -> float:
    """J_t(x_i; policy) by forward propagation of the node distribution.

    The (s, y) cost arguments stay frozen at (t, x_i) throughout -- the
    source of state dependence.  The policy must supply controls for
    times t..T-2.
    """
    T = model.T
    y = float(model.grids[t][i])
    d = np.zeros(model.grids[t].size)
    d[i] = 1.0
    total = 0.0
    for k in range(t, T - 1):
        uk = policy.controls[k]
        if uk is None:
            raise ModelError(f"policy missing controls at time {k}")
        ck = np.asarray(model.costs.running(k, t, y, model.grids[k], uk), dtype=float)
        total += float(d @ ck)
        d = d @ policy_matrix(dk, k, uk)
    xT = model.grids[-1]
    total += float(d @ np.asarray(model.costs.terminal(t, y, xT), dtype=float))
    m = float(d @ np.asarray(model.costs.terminal_stat(xT), dtype=float))
    total += float(np.asarray(model.costs.mixer(t, y, m), dtype=float))
    if not np.isfinite(total):
        raise ModelError("objective accumulation is non-finite")
    return total


@dataclass
class MCResult:
    estimate: float
    stderr: float
    clamped: bool  # some interpolated control was clipped into its interval

    def __iter__(self):
        return iter((self.estimate, self.stderr))


def eval_objective_mc(model: Model, policy: Policy, t: int, x: float,
                      n_paths: int, seed: int) -> MCResult:
    """Monte Carlo estimate of J_t(x; policy) with exact noise sampling.

    Controls are interpolated linearly in the state between grid nodes;
    values falling outside the feasible interval are clamped and flagged.
    The G term uses the plug-in estimator G(t, x, mean H) with a
    delta-method standard error (the plug-in is biased O(1/n) when G is
    nonlinear).
    """
    if not isinstance(model.kernel, AdditiveNoise):
        raise ModelError("Monte Carlo evaluation needs an additive-noise kernel")
    if n_paths < 100:
        raise ModelError("n_paths must be >= 100")
    rng = np.random.default_rng(seed)
    T = model.T
    states = np.full(n_paths, float(x))
    lin = np.zeros(n_paths)
    clamped = False
    for k in range(t, T - 1):
        uk = policy.controls[k]
        if uk is None:
            raise ModelError(f"policy missing controls at time {k}")
        u = np.interp(states, model.grids[k], uk)
        lo, hi = model.constraints[k].bounds(states)
        u_cl = np.clip(u, lo, hi)
        if np.any(u_cl != u):
            clamped = True
        lin += np.asarray(model.costs.running(k, t, x, states, u_cl), dtype=float)
        w = model.kernel.noise.sample(rng, n_paths)
        mu = np.asarray(model.kernel.drift(k, states, u_cl), dtype=float)
        sc = np.asarray(model.kernel.scale(k, states, u_cl), dtype=float)
        states = mu + sc * w
    lin += np.asarray(model.costs.terminal(t, x, states), dtype=float)
    hvals = np.asarray(model.costs.terminal_stat(states), dtype=float)
    m = float(hvals.mean())
    est = float(lin.mean()) + float(np.asarray(model.costs.mixer(t, x, m), dtype=float))

    # Delta method on (mean lin, mean H): gradient (1, G'(m)).
    h_scale = max(1.0, abs(m))
    dm = 1e-5 * h_scale
    gp = (float(np.asarray(model.costs.mixer(t, x, m + dm), dtype=float))
          - float(np.asarray(model.costs.mixer(t, x, m - dm), dtype=float))) / (2 * dm)
    var_lin = float(np.var(lin, ddof=1))
    var_h = float(np.var(hvals, ddof=1))
    cov = float(np.cov(lin, hvals, ddof=1)[0, 1])
    var_est = (var_lin + gp * gp * var_h + 2.0 * gp * cov) / n_paths
    return MCResult(estimate=est, stderr=float(np.sqrt(max(var_est, 0.0))),
                    clamped=clamped)


@dataclass
class DeviationReport:
    """Worst one-step deviation improvement over all probed (t, node, control)."""

    worst_gap: float
    argmax: Optional[tuple]              # (t, node, control)
    per_time_gap: List[float]
    probe_resolution: List[int]          # number of probe controls per time
    tol: float
    certified: bool
    rows: List[tuple] = field(default_factory=list)  # (t, node, state, u, J_dev, V, gap)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "node_index", "state", "control", "J_dev", "V", "gap"])
            for row in self.rows:
                w.writerow([row[0], row[1]] + [f"{v:.17g}" for v in row[2:]])


def _policy_values(model: Model, dk: DiscretizedKernel, policy: Policy) -> List[np.ndarray]:
    """J_t(x_i; policy) for every node, by batched forward propagation."""
    T = model.T
    values = []
    for t in range(T - 1):
        n = model.grids[t].size
        D = np.eye(n)
        ys = model.grids[t]
        tot = np.zeros(n)
        for k in range(t, T - 1):
            ck = np.asarray(model.costs.running(k, t, ys[:, None],
                                                model.grids[k][None, :],
                                                policy.controls[k][None, :]), dtype=float)
            tot += np.einsum("im,im->i", D, ck)
            D = D @ policy_matrix(dk, k, policy.controls[k])
        xT = model.grids[-1]
        fmat = np.asarray(model.costs.terminal(t, ys[:, None], xT[None, :]), dtype=float)
        tot += np.einsum("im,im->i", D, fmat)
        m = D @ np.asarray(model.costs.terminal_stat(xT), dtype=float)
        tot += np.asarray(model.costs.mixer(t, ys, m), dtype=float)
        values.append(tot)
    return values


def deviation_report(model: Model, dk: DiscretizedKernel, policy: Policy,
                     values: Optional[List[np.ndarray]] = None,
                     probe_controls_per_node: Optional[int] = None,
                     tol: float = 1e-6,
                     keep_rows: bool = False) -> DeviationReport:
    """Probe one-step deviations (u, tail) at every (t, node).

    Default probes are the full control grid plus the policy's own control
    (so refined off-grid controls are always included).  ``values`` are
    the claimed J_t(x; policy) per node; recomputed when omitted.  The
    gap at (t, i, u) is V_t(x_i) - J_t(x_i; (u, tail)); positive gaps mean
    a profitable deviation.  Certification holds at the probe resolution
    only.
    """
    policy.check_feasible(model)
    if values is None:
        values = _policy_values(model, dk, policy)
    T = model.T
    worst = -np.inf
    argmax = None
    per_time = []
    resolutions = []
    rows: List[tuple] = []
    for t in range(T - 1):
        n = model.grids[t].size
        U = dk.controls[t]
        if probe_controls_per_node is None:
            probes = np.concatenate([U, policy.controls[t][:, None]], axis=1)
        else:
            lo, hi = model.constraints[t].bounds(model.grids[t])
            frac = np.linspace(0.0, 1.0, probe_controls_per_node)
            probes = np.concatenate([lo[:, None] + (hi - lo)[:, None] * frac,
                                     policy.controls[t][:, None]], axis=1)
        P = probes.shape[1]
        resolutions.append(P)
        # First step under each probe control, then the frozen tail.
        D = dk.row_block(t, probes)
        ys = model.grids[t]
        J = np.asarray(model.costs.running(t, t, ys[:, None], ys[:, None], probes),
                       dtype=float).copy()
        for k in range(t + 1, T - 1):
            ck = np.asarray(model.costs.running(k, t, ys[:, None],
                                                model.grids[k][None, :],
                                                policy.controls[k][None, :]), dtype=float)
            J += np.einsum("ipm,im->ip", D, ck)
            Q = policy_matrix(dk, k, policy.controls[k])
            D = np.einsum("ipm,mq->ipq", D, Q)
        xT = model.grids[-1]
        fmat = np.asarray(model.costs.terminal(t, ys[:, None], xT[None, :]), dtype=float)
        J += np.einsum("ipm,im->ip", D, fmat)
        m = D @ np.asarray(model.costs.terminal_stat(xT), dtype=float)
        J += np.asarray(model.costs.mixer(t, ys[:, None], m), dtype=float)

        gaps = values[t][:, None] - J
        per_time.append(float(gaps.max()))
        idx = np.unravel_index(np.argmax(gaps), gaps.shape)
        if gaps[idx] > worst:
            worst = float(gaps[idx])
            argmax = (t, int(idx[0]), float(probes[idx]))
        if keep_rows:
            for i in range(n):
                for p in range(P):
                    rows.append((t, i, float(ys[i]), float(probes[i, p]),
                                 float(J[i, p]), float(values[t][i]),
                                 float(gaps[i, p])))
    return DeviationReport(worst_gap=worst, argmax=argmax, per_time_gap=per_time,
                           probe_resolution=resolutions, tol=tol,
                           certified=worst <= tol, rows=rows)


def verify_equilibrium(model: Model, dk: DiscretizedKernel,
                       solution: EquilibriumSolution,
                       probe_controls_per_node: Optional[int] = None,
                       tol: float = 1e-6,
                       keep_rows: bool = False) -> DeviationReport:
    """Deviation test for a solved equilibrium, using its reported values."""
    report = deviation_report(model, dk, solution.policy,
                              values=[np.asarray(v) for v in solution.values],
                              probe_controls_per_node=probe_controls_per_node,
                              tol=tol, keep_rows=keep_rows)
    solution.diagnostics.deviation_gap = report.worst_gap
    return report


# ---------------------------------------------------------------------------
# Time-consistent baselines
# ---------------------------------------------------------------------------

def _mixer_depends_on_h(model: Model, s: int, y: float) -> bool:
    hs = np.linspace(-1.0, 1.0, 7)
    g = np.asarray(model.costs.mixer(s, y, hs), dtype=float)
    return bool(np.ptp(g) > 1e-12 * (1.0 + np.max(np.abs(g))))


def _dp_linear(model: Model, dk: DiscretizedKernel, t0: int, s: int, y: float,
               lam: float, refine_tol: Optional[float] = 1e-9) -> Policy:
    """Plain backward DP on E[sum C_k(s, y, ...) + F(s, y, x_T) + lam * H(x_T)].

    Returns the minimizing Markov policy for times t0..T-2.
    """
    T = model.T
    xT = model.grids[-1]
    V = (np.asarray(model.costs.terminal(s, y, xT), dtype=float)
         + lam * np.asarray(model.costs.terminal_stat(xT), dtype=float))
    controls: List[Optional[np.ndarray]] = [None] * (T - 1)
    chain = isinstance(model.kernel, DiscreteChain)
    for k in range(T - 2, t0 - 1, -1):
        xk = model.grids[k]
        U = dk.controls[k]
        c = np.asarray(model.costs.running(k, s, y, xk[:, None], U), dtype=float)
        cont = np.einsum("ijm,m->ij", dk.weights[k], V)
        Lk = c + cont
        j = np.argmin(Lk, axis=1)
        n = Lk.shape[0]
        uk = U[np.arange(n), j].astype(float)
        vk = Lk[np.arange(n), j].astype(float)
        if refine_tol is not None and not chain:
            def f(idx, u):
                u2 = u.reshape(idx.size, -1)
                cu = np.asarray(model.costs.running(k, s, y, xk[idx][:, None], u2), dtype=float)
                return (cu + dk.node_rows(k, idx, u2) @ V).reshape(u.shape)
            nodes, u_ref, v_ref = refine_bowls(f, Lk, j, U, refine_tol)
            better = v_ref < vk[nodes]
            uk[nodes[better]], vk[nodes[better]] = u_ref[better], v_ref[better]
        controls[k] = uk
        V = vk
    return Policy(controls=controls)


def _mean_terminal_stat(model: Model, dk: DiscretizedKernel, policy: Policy,
                        t0: int, i0: int) -> float:
    d = np.zeros(model.grids[t0].size)
    d[i0] = 1.0
    for k in range(t0, model.T - 1):
        d = d @ policy_matrix(dk, k, policy.controls[k])
    return float(d @ np.asarray(model.costs.terminal_stat(model.grids[-1]), dtype=float))


def solve_precommitment(model: Model, dk: DiscretizedKernel, t0: int, i0: int,
                        m_tol: float = 1e-10, max_expand: int = 60):
    """Policy minimizing J_{t0}(x_{i0}; .) over Markov policies.

    With G independent of h this is plain backward DP on the linear terms
    (with (s, y) frozen at (t0, x_{i0})).  Otherwise the scalar coupling
    m = E[H(x_T)] is resolved by a fixed-point search: a candidate m sets
    the tangent slope lam = G'(t0, y, m), a linear DP under the cost
    lam * H yields an achieved mean m'; bisection on m' - m over a
    geometrically grown bracket.  For concave G the optimum lies on this
    tangent family; every DP candidate's true objective is tracked and
    the best one is returned, so non-concave G still yields the best
    tangent-family policy.
    """
    y = float(model.grids[t0][i0])
    candidates = []  # (true J, policy)

    def dp_at(lam: float) -> Policy:
        pol = _dp_linear(model, dk, t0, t0, y, lam)
        candidates.append((eval_objective_exact(model, dk, pol, t0, i0), pol))
        return pol

    if not _mixer_depends_on_h(model, t0, y):
        pol = dp_at(0.0)
        return pol, candidates[0][0]

    h_scale = max(1.0, float(np.max(np.abs(
        np.asarray(model.costs.terminal_stat(model.grids[-1]), dtype=float)))))
    dm = 1e-6 * h_scale

    def gprime(m: float) -> float:
        return (float(np.asarray(model.costs.mixer(t0, y, m + dm), dtype=float))
                - float(np.asarray(model.costs.mixer(t0, y, m - dm), dtype=float))) / (2 * dm)

    def residual(m: float) -> float:
        pol = dp_at(gprime(m))
        return _mean_terminal_stat(model, dk, pol, t0, i0) - m

    # Bracket the fixed point of m -> achieved mean, growing geometrically
    # around the unpenalized DP's mean.
    m0 = _mean_terminal_stat(model, dk, dp_at(0.0), t0, i0)
    r0 = residual(m0)
    a = b = m0
    ra = rb = r0
    step = max(0.25 * h_scale, 1e-3)
    for _ in range(max_expand):
        if ra * rb <= 0 and a < b:
            break
        step *= 1.6
        a, b = m0 - step, m0 + step
        ra, rb = residual(a), residual(b)
    if ra * rb <= 0 and a < b:
        for _ in range(200):
            if b - a < m_tol * h_scale:
                break
            mid = 0.5 * (a + b)
            rm = residual(mid)
            if ra * rm <= 0:
                b = mid
            else:
                a, ra = mid, rm
        residual(0.5 * (a + b))
    # Whatever the search path, return the candidate with the best true
    # objective (for concave G the optimum lies on the tangent family).
    best = min(candidates, key=lambda c: c[0])
    return best[1], best[0]


def solve_naive(model: Model, dk: DiscretizedKernel) -> Policy:
    """At each (t, node), apply the first action of the precommitment plan from there.

    When G is h-independent the inner precommitment solves are plain DPs
    and are batched over the frozen evaluation states; otherwise each
    node runs its own scalar search (slow; intended for small grids).
    """
    T = model.T
    controls: List[Optional[np.ndarray]] = [None] * (T - 1)
    for t in range(T - 1):
        xs = model.grids[t]
        n = xs.size
        if not any(_mixer_depends_on_h(model, t, float(v)) for v in
                   (xs[0], xs[n // 2], xs[-1])):
            # Batched plain DP over all frozen y simultaneously.
            xT = model.grids[-1]
            V = np.asarray(model.costs.terminal(t, xs[:, None], xT[None, :]), dtype=float)
            for k in range(T - 2, t - 1, -1):
                xk = model.grids[k]
                U = dk.controls[k]
                c = np.asarray(model.costs.running(k, t, xs[:, None, None],
                                                   xk[None, :, None], U[None, :, :]),
                               dtype=float)
                cont = np.einsum("njm,ym->ynj", dk.weights[k], V)
                Lk = c + cont
                j = np.argmin(Lk, axis=2)
                V = np.take_along_axis(Lk, j[:, :, None], axis=2)[:, :, 0]
                if k == t:
                    # Diagonal read: each frozen y is its own node's state,
                    # and only the first action of each plan is kept.
                    ji = j[np.arange(n), np.arange(n)]
                    controls[t] = U[np.arange(n), ji].astype(float)
        else:
            uk = np.empty(n)
            for i in range(n):
                pol, _ = solve_precommitment(model, dk, t, i)
                uk[i] = pol.controls[t][i]
            controls[t] = uk
    return Policy(controls=controls)
