"""Independent policy evaluation and the subgame-perfect deviation test.

Everything here evaluates objectives by *forward* propagation of state
distributions (or Monte Carlo simulation of the true noise), independent
of the solver's backward tabulation: ``_probe_objective`` for the deviation
test's shared tail, ``_plan_objective`` for plans that play their own
controls.  The baselines, precommitment and naive, show where DP fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ModelError
from .kernels import AdditiveNoise, DiscretizedKernel, derivative
from .model import Model, Policy
from .solver import EquilibriumSolution, refine_bowls

# Fixed-point search of the precommitment baselines, in units of h_scale
# (the largest |H| on the terminal grid): after at most MAX_EXPAND geometric
# widenings by 1.6, safeguarded Illinois steps narrow the bracket on m to
# width M_TOL in no more DPs than bisection would take.
M_TOL = 1e-10
MAX_EXPAND = 60
# Landing-row entries per step-objective call of the linear DPs: a batch's
# rows, and the tent blocks kept for their slope, stay a few MB however many plans run.
DP_CHUNK = 1 << 19


def _probe_objective(model: Model, dk: DiscretizedKernel, t: int, nodes, controls,
                     probes, rows, steps) -> tuple:
    """J_t and E[H(x_T)], each (P, Q), of one-step deviations from the time-t nodes ``nodes`` (P,).

    Plan p plays ``probes[p, q]`` (shape (P, Q)) at t, with first-step rows
    ``rows`` (column blocks (P, Q_b, n_{t+1}) covering the Q probes: dense,
    or ``dk.grid_rows(t)``), then the policy ``controls`` (``controls[k]``
    (n_k,)) with landing rows ``steps[k]`` (n_k, 1, n_{k+1}).  The (s, y)
    cost arguments stay frozen at (t, x_node).  The tail's law from each
    landing node is pushed forward once, each step's cost reaching all plans
    in one GEMM, skipped where the cost is 0 everywhere (MV, exp_utility),
    for the tail cost v and mean h of H per landing node; each block is then
    contracted against [v, h] by ``dk.expect``, whose value for a row
    depends on that row alone, so a probe's value does not depend on its
    column block, and which skips h where H is 0 everywhere.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    y = model.grids[t][nodes][:, None]
    J, d = 0.0, None  # d: the tail's law (n_{t+1}, n_k) from each landing node
    for k in range(t + 1, model.T - 1):
        r = model.costs.running(k, t, y, model.grids[k], controls[k])
        if d is None:
            J, d = r, steps[k][:, 0]
            continue
        if np.any(r):  # a NaN counts; a zero cost adds exact zeros
            J = J + r @ d.T
        d = d @ steps[k][:, 0]
    xT = model.grids[-1]
    F, H = model.costs.terminal(t, y, xT), model.costs.terminal_stat(xT)
    if d is not None:
        F, H = F @ d.T, d @ H
    Jh = np.empty((2, nodes.size, model.grids[t + 1].size))
    Jh[0], Jh[1] = J + F, H
    J, m = np.concatenate([dk.expect(t, Jh, b) for b in rows], axis=-1)
    J = model.costs.running(t, t, y, y, probes) + J
    return J + model.costs.mixer(t, y, m), m


def _plan_objective(model: Model, dk: DiscretizedKernel, t: int, nodes, controls) -> tuple:
    """J_t and E[H(x_T)], each (P,), of the plans from the time-t nodes ``nodes`` (P,).

    Plan p plays row p of ``controls[k]``, (P, n_k), or its one shared row,
    (1, n_k) or 1-d, at every k >= t, with (s, y) frozen at (t, x_node).
    Each plan's own first-step row is pushed forward, one matmul per step.
    """
    def at(k):
        if controls[k] is None:
            raise ModelError(f"policy missing controls at time {k}")
        return np.atleast_2d(np.asarray(controls[k], dtype=float))

    nodes = np.asarray(nodes, dtype=np.intp)
    y = model.grids[t][nodes][:, None]
    u = np.broadcast_to(at(t), (nodes.size, model.grids[t].size))[
        np.arange(nodes.size), nodes][:, None]
    J, d = model.costs.running(t, t, y, y, u)[..., None], dk.node_rows(t, nodes, u)
    for k in range(t + 1, model.T - 1):
        uk = at(k)
        J = J + d @ model.costs.running(k, t, y, model.grids[k], uk)[..., None]
        d = d @ dk.node_rows(k, np.arange(uk.shape[1]), uk.T).transpose(1, 0, 2)
    xT = model.grids[-1]
    J = (J + d @ model.costs.terminal(t, y, xT)[..., None])[..., 0]
    m = d @ model.costs.terminal_stat(xT)
    return (J + model.costs.mixer(t, y, m))[:, 0], m[:, 0]


def eval_objective_exact(model: Model, dk: DiscretizedKernel, policy: Policy,
                         t: int, i: int) -> float:
    """J_t(x_i; policy) by forward propagation of the node distribution.

    The policy must hold one entry per decision time and supply controls
    for times t..T-2.
    """
    policy.check_length(model)
    J, _ = _plan_objective(model, dk, t, [i], policy.controls)
    if not np.isfinite(J[0]):
        raise ModelError("objective accumulation is non-finite")
    return float(J[0])


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
        lin += model.costs.running(k, t, x, states, u_cl)
        w = model.kernel.noise.sample(rng, n_paths)
        states = model.kernel.drift(k, states, u_cl) + model.kernel.scale(k, states, u_cl) * w
    lin += model.costs.terminal(t, x, states)
    hvals = model.costs.terminal_stat(states)
    m = float(hvals.mean())
    est = float(lin.mean()) + float(model.costs.mixer(t, x, m))

    # Delta method on (mean lin, mean H): gradient (1, G'(m)).
    h_scale = max(1.0, abs(m))
    dm = 1e-5 * h_scale
    gp = float(model.costs.mixer(t, x, m + dm) - model.costs.mixer(t, x, m - dm)) / (2 * dm)
    var_lin = float(np.var(lin, ddof=1))
    var_h = float(np.var(hvals, ddof=1))
    cov = float(np.cov(lin, hvals, ddof=1)[0, 1])
    var_est = (var_lin + gp * gp * var_h + 2.0 * gp * cov) / n_paths
    return MCResult(estimate=est, stderr=float(np.sqrt(max(var_est, 0.0))),
                    clamped=clamped)


@dataclass
class DeviationReport:
    """Worst one-step deviation improvement over all probed (t, node, control).

    Per time t: ``states`` (n_t,), the probe controls ``probes`` and the
    deviation objectives ``J_dev``, both (n_t, P_t), and ``values`` (n_t,);
    the gap at (t, i, p) is values[t][i] - J_dev[t][i, p].  ``worst_probe``
    (n_t,) holds each node's largest-gap probe index, the first on ties.
    """

    worst_gap: float
    argmax: tuple                        # (t, node, control)
    per_time_gap: List[float]
    per_time_argmax: List[tuple]         # (node, control) of per_time_gap
    tol: float
    certified: bool
    values: List[np.ndarray]             # V_t per node that the gaps were taken against
    states: List[np.ndarray]
    probes: List[np.ndarray]
    J_dev: List[np.ndarray]
    worst_probe: List[np.ndarray]

    @property
    def probe_resolution(self) -> List[int]:
        """Number of probe controls per node, per time."""
        return [u.shape[1] for u in self.probes]

    def to_csv(self, path):
        """The certificate, one row per (t, node): the node's worst probe and its gap.

        The worst probe is ``worst_probe``; ``probes`` is the node's probe
        count P_t.  Floats are written as %.17g.
        """
        def rows(t, y, u, J, v, k):
            r = np.arange(y.size)
            return t, r, y, v, u[r, k], J[r, k], v - J[r, k], u.shape[1]

        write_csv(path, ["t", "node_index", "state", "V", "control", "J_dev", "gap", "probes"],
                  "%d,%d" + ",%.17g" * 5 + ",%d",
                  (rows(t, *arrays) for t, arrays in enumerate(zip(
                      self.states, self.probes, self.J_dev, self.values, self.worst_probe))))

    def probes_to_csv(self, path):
        """Every probe, one row per (t, node, probe): its control and J_dev as %.17g."""
        write_csv(path, ["t", "node_index", "control", "J_dev"], "%d,%d,%.17g,%.17g",
                  ((t, np.arange(u.shape[0])[:, None], u, J)
                   for t, (u, J) in enumerate(zip(self.probes, self.J_dev))))


def write_csv(path, header, fmt, blocks):
    """Write ``header``, then one CRLF-ended ``fmt`` row per element of each block.

    A block is a tuple of columns that broadcast together; its rows are
    formatted by one ``%`` over the columns' interleaved ``tolist()``s.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            cols = [c.ravel().tolist() for c in np.broadcast_arrays(*block)]
            flat = [None] * (len(cols) * len(cols[0]))
            for j, col in enumerate(cols):
                flat[j::len(cols)] = col
            fh.write((fmt + "\r\n") * len(cols[0]) % tuple(flat))


def deviation_report(model: Model, dk: DiscretizedKernel, policy: Policy,
                     values: Optional[List[np.ndarray]] = None,
                     probe_controls_per_node: Optional[int] = None,
                     tol: float = 1e-6) -> DeviationReport:
    """Probe one-step deviations (u, tail) at every (t, node).

    Default probes are the full control grid plus the policy's own control (so
    refined off-grid controls are always included); the grid's landing rows are
    the kernel's stored bands (``dk.grid_rows(t)``), and the policy's own rows come
    once per t from ``dk.node_rows`` (stored rows at grid controls), for its column
    and the tails.  ``probe_controls_per_node`` replaces the
    grid by that many evenly spaced controls per node, their rows built through
    ``dk.node_rows``.  All probes at t share the policy's tail, pushed forward
    once from the landing nodes (``_probe_objective``).  ``values``, the claimed
    J_t(x; policy), are one (n_t,) array per t; when omitted, the policy's own
    probe supplies them.  The gap at (t, i, u) is V_t(x_i) - J_t(x_i; (u, tail));
    positive gaps mean a profitable deviation.  Bad ``values``, a non-finite J_dev
    or V (named by (t, node, control)), or a ``tol`` that is not a finite number
    >= 0 raise ModelError.  Certification holds at the probe resolution only.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ModelError(f"certification tolerance must be a finite number >= 0, got {tol!r}")
    policy.check_feasible(model)
    if policy.controls[0] is None:  # check_feasible allows leading gaps only
        raise ModelError("the certificate needs controls at every t; the policy has none at t=0")
    if values is not None and len(values) != model.T - 1:
        raise ModelError(f"values need one array per time t=0..{model.T - 2}, got {len(values)}")
    per_time, per_arg, used, all_probes, all_J, worst = [], [], [], [], [], []
    own = [dk.node_rows(t, np.arange(u.size), u[:, None]) for t, u in enumerate(policy.controls)]
    for t in range(model.T - 1):
        nodes = np.arange(model.grids[t].size)
        if probe_controls_per_node is None:
            grid, first = dk.controls[t], dk.grid_rows(t)
        else:
            lo, hi = model.constraints[t].bounds(model.grids[t])
            frac = np.linspace(0.0, 1.0, probe_controls_per_node)
            grid = lo[:, None] + (hi - lo)[:, None] * frac
            first = dk.node_rows(t, nodes, grid)
        probes = np.concatenate([grid, policy.controls[t][:, None]], axis=1)
        J, _ = _probe_objective(model, dk, t, nodes, policy.controls, probes, [first, own[t]], own)
        v = J[:, -1].copy() if values is None else np.asarray(values[t], dtype=float)
        if v.shape != nodes.shape:
            raise ModelError(f"values at t={t} have shape {v.shape}, expected {nodes.shape}")
        gaps = v[:, None] - J
        bad = np.argwhere(~np.isfinite(gaps))
        if bad.size:
            i, p = bad[0]
            raise ModelError(f"non-finite deviation objective at (t={t}, node={i}, "
                             f"control={probes[i, p]:.17g}): J_dev {J[i, p]}, V {v[i]}")
        k = gaps.argmax(axis=1)  # each node's worst probe, the first on ties
        i = int(np.argmax(gaps[nodes, k]))
        per_time.append(float(gaps[i, k[i]]))
        per_arg.append((i, float(probes[i, k[i]])))
        used.append(v)
        all_probes.append(probes)
        all_J.append(J)
        worst.append(k)
    t = int(np.argmax(per_time))  # the first t on ties
    return DeviationReport(worst_gap=per_time[t], argmax=(t, *per_arg[t]),
                           per_time_gap=per_time, per_time_argmax=per_arg, tol=tol,
                           certified=per_time[t] <= tol, values=used,
                           states=model.grids[:model.T - 1], probes=all_probes, J_dev=all_J,
                           worst_probe=worst)


def verify_equilibrium(model: Model, dk: DiscretizedKernel,
                       solution: EquilibriumSolution,
                       probe_controls_per_node: Optional[int] = None,
                       tol: float = 1e-6) -> DeviationReport:
    """Deviation test for a solved equilibrium, using its reported values."""
    return deviation_report(model, dk, solution.policy,
                            values=[np.asarray(v) for v in solution.values],
                            probe_controls_per_node=probe_controls_per_node, tol=tol)


# ---------------------------------------------------------------------------
# Time-consistent baselines
# ---------------------------------------------------------------------------

def _mixer_depends_on_h(model: Model, s: int, ys: np.ndarray) -> np.ndarray:
    """Per frozen state y in ``ys``: whether G(s, y, h) varies with h."""
    hs = np.linspace(-1.0, 1.0, 7)
    g = model.costs.mixer(s, ys[:, None], hs)
    return np.ptp(g, axis=1) > 1e-12 * (1.0 + np.max(np.abs(g), axis=1))


def _dp_linear(model: Model, dk: DiscretizedKernel, t0: int, nodes: np.ndarray,
               lam: np.ndarray) -> List[Optional[np.ndarray]]:
    """Backward DP on E[sum C_k(t0, y, ...) + F(t0, y, x_T) + lam * H(x_T)], one plan per (y, lam).

    Plan p starts at the time-t0 node nodes[p] (y = x_{nodes[p]}) with
    slope lam[p].  Returns the minimizing Markov plans as controls[k] of
    shape (P, n_k), k = t0..T-2 (None before t0).  Each time step is one
    ``refine_bowls`` call on the rows p * n + i (plan p at node i).  It
    refines every node after t0, and at t0 only each plan's start node
    (its other t0 controls are never played).
    """
    ys = model.grids[t0][nodes]
    xT = model.grids[-1]
    V = model.costs.terminal(t0, ys[:, None], xT) + lam[:, None] * model.costs.terminal_stat(xT)
    controls: List[Optional[np.ndarray]] = [None] * (model.T - 1)
    P = ys.size
    for k in range(model.T - 2, t0 - 1, -1):
        xk, U = model.grids[k], dk.controls[k]
        n, M = U.shape
        Lk = model.costs.running(k, t0, ys[:, None, None], xk[:, None], U) + dk.expect(k, V)
        step = max(1, DP_CHUNK // model.grids[k + 1].size)

        def f(r, u):  # row r = p * n + i: plan p at node i; (value, slope) at u (k,)
            p, i = np.divmod(r, n)
            cost = lambda w: model.costs.running(k, t0, ys[p], xk[i], w)
            EV, dEV = np.empty((2, r.size))
            for a in range(0, r.size, step):
                c = slice(a, a + step)
                (rows, slope), g = dk.node_rows_and_slope(k, i[c], u[c]), V[p[c]]
                EV[c], dEV[c] = np.einsum("km,km->k", rows, g), slope(g)
            return cost(u) + EV, derivative(cost, u, *U[i][:, [0, -1]].T) + dEV
        _, uk, vk, _ = refine_bowls(model.kernel, Lk.reshape(P * n, M),
                                    np.broadcast_to(U, (P, n, M)).reshape(P * n, M), f,
                                    rows=None if k > t0 else np.arange(P) * n + nodes,
                                    where=lambda r: f"node {r % n} at t={k} of the plan "
                                                    f"from node {nodes[r // n]} at t={t0}")
        controls[k] = uk.reshape(P, n)
        V = vk.reshape(P, n)
    return controls


def _precommit(model: Model, dk: DiscretizedKernel, t0: int, nodes):
    """Precommitment plans from the time-t0 nodes ``nodes`` (P,), searched in lockstep.

    Every plan runs the sequence of the search described in
    ``solve_precommitment``; plans sit out the DPs their own search no
    longer needs, so each batched DP covers only the plans still at that
    step.  Returns (controls, J): controls[k] of shape (P, n_k) for
    k = t0..T-2 and each plan's true objective.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    ys = model.grids[t0][nodes]
    h_scale = max(1.0, float(np.max(np.abs(model.costs.terminal_stat(model.grids[-1])))))
    dm = 1e-6 * h_scale

    def run(idx, m):
        """One DP for plans idx at the tangent slopes G'(m); keeps each plan's best candidate."""
        y = ys[idx]
        lam = (model.costs.mixer(t0, y, m + dm) - model.costs.mixer(t0, y, m - dm)) / (2 * dm)
        ctrl = _dp_linear(model, dk, t0, nodes[idx], lam)
        J, mean = _plan_objective(model, dk, t0, nodes[idx], ctrl)
        win = J < best_J[idx]  # strict: a tie keeps the earlier candidate
        for bk, ck in zip(best[t0:], ctrl[t0:]):
            bk[idx[win]] = ck[win]
        best_J[idx[win]] = J[win]
        return mean

    best = _dp_linear(model, dk, t0, nodes, np.zeros(ys.size))
    best_J, m0 = _plan_objective(model, dk, t0, nodes, best)
    act = np.flatnonzero(_mixer_depends_on_h(model, t0, ys))
    if act.size == 0:
        return best, best_J
    # Bracket the fixed point of m -> achieved mean, growing geometrically
    # around the unpenalized DP's mean.
    m0 = m0[act]
    r0 = run(act, m0) - m0
    a, b, ra, rb = m0.copy(), m0.copy(), r0.copy(), r0.copy()
    step = np.full(act.size, max(0.25 * h_scale, 1e-3))
    for _ in range(MAX_EXPAND):
        g = np.flatnonzero(~((ra * rb <= 0) & (a < b)))
        if g.size == 0:
            break
        step[g] *= 1.6
        a[g], b[g] = m0[g] - step[g], m0[g] + step[g]
        ra[g] = run(act[g], a[g]) - a[g]
        rb[g] = run(act[g], b[g]) - b[g]
    bracketed = np.flatnonzero((ra * rb <= 0) & (a < b))
    kept = np.zeros(act.size)  # end kept by the last step: -1 a, 1 b

    def settle(idx, m, rm):
        """m replaces the end of [a, b] whose residual has rm's sign (Illinois halving)."""
        left = ra[idx] * rm <= 0  # the fixed point lies in [a, m]
        lo, hi = idx[left], idx[~left]
        ra[lo] *= np.where(kept[lo] == -1, 0.5, 1.0)
        rb[hi] *= np.where(kept[hi] == 1, 0.5, 1.0)
        b[lo], rb[lo], kept[lo] = m[left], rm[left], -1
        a[hi], ra[hi], kept[hi] = m[~left], rm[~left], 1

    # Bisection's first DP would repeat m0, the bracket's centre: halve there
    # for free.  Then Illinois steps (regula falsi on the end residuals,
    # halving the residual of an end kept twice in a row), moved toward the
    # midpoint by 0.2 (b - a)^2 / w and projected as in the ITP method
    # (Oliveira & Takahashi, 2020, ACM TOMS), w being the width after the
    # free halving: step j leaves a bracket no wider than w / 2^j, which
    # bisection has after as many DPs, so no search runs more DPs than
    # bisection.  A step lands at least tol / 2 inside the bracket, so a
    # fixed point next to an end is straddled.
    settle(bracketed, m0[bracketed], r0[bracketed])
    tol = M_TOL * h_scale
    width = b - a
    live = bracketed
    for j in range(200):
        live = live[~(b[live] - a[live] < tol)]
        if live.size == 0:
            break
        al, bl, ral, rbl = a[live], b[live], ra[live], rb[live]
        mid = 0.5 * (al + bl)
        m = np.where(ral != rbl, bl - rbl * (bl - al) / np.where(ral != rbl, rbl - ral, 1.0),
                     mid)
        shift = 0.2 * (bl - al) ** 2 / width[live]
        m = np.where(shift < np.abs(mid - m), m + np.sign(mid - m) * shift, mid)
        reach = width[live] * 0.5 ** j
        m = np.clip(m, np.maximum(al + 0.5 * tol, bl - reach),
                    np.minimum(bl - 0.5 * tol, al + reach))
        settle(live, m, run(act[live], m) - m)
    if bracketed.size:
        run(act[bracketed], 0.5 * (a[bracketed] + b[bracketed]))
    return best, best_J


def solve_precommitment(model: Model, dk: DiscretizedKernel, t0: int, i0: int):
    """Policy minimizing J_{t0}(x_{i0}; .) over Markov policies.

    With G independent of h this is plain backward DP on the linear terms
    (with (s, y) frozen at (t0, x_{i0})).  Otherwise the scalar coupling
    m = E[H(x_T)] is resolved by a fixed-point search: a candidate m sets
    the tangent slope lam = G'(t0, y, m), a linear DP under the cost
    lam * H yields an achieved mean m', and the root of m' - m is
    bracketed by geometric growth around the unpenalized mean, then found
    by Illinois steps (regula falsi that halves the residual of an end
    kept twice) under a safeguard that never lets the search take more DPs
    than bisection.  For concave G the optimum lies on this tangent
    family.  Every DP candidate's true objective is tracked and the best
    one is returned, so with non-concave G, or where m' - m changes sign
    more than once (a step-shaped residual on a discrete chain), the
    result is the best tangent-family policy the search visited.
    """
    controls, J = _precommit(model, dk, t0, [i0])
    return Policy(controls=[None if c is None else c[0] for c in controls]), float(J[0])


def solve_naive(model: Model, dk: DiscretizedKernel) -> Policy:
    """At each (t, node), apply the first action of the precommitment plan from there.

    One lockstep search per t covers the plans from every node; node i
    keeps its own plan's (refined) control at (t, i).
    """
    controls: List[Optional[np.ndarray]] = []
    for t in range(model.T - 1):
        n = model.grids[t].size
        plans, _ = _precommit(model, dk, t, np.arange(n))
        controls.append(plans[t][np.arange(n), np.arange(n)])
    return Policy(controls=controls)
