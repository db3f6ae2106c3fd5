"""Independent reference computations used by the tests.

Everything here is written with plain loops and explicit path
enumeration, or over the whole grid, deliberately avoiding the library's
vectorized and windowed code paths, so agreement is meaningful.
"""

import csv
import io

import numpy as np
from scipy import special

from markeq import Policy
from markeq.kernels import WEIGHT_FLOOR, policy_matrix
from markeq.noise import ndtr, normal_pdf, normal_tail


def chain_config(rng, T, n_states, n_controls, mixer="zero"):
    """Random discrete-chain config document with nonnegative cost tables."""
    grids = []
    for _ in range(T):
        steps = rng.uniform(0.2, 1.0, n_states)
        grids.append((np.cumsum(steps) - 2.0).tolist())
    matrices, control_values = [], []
    for _ in range(T - 1):
        P = rng.uniform(0.05, 1.0, (n_states, n_controls, n_states))
        P /= P.sum(axis=-1, keepdims=True)
        matrices.append(P.tolist())
        control_values.append(np.sort(rng.uniform(-1.0, 1.0, n_controls)).tolist())
    costs = {
        "running": [rng.uniform(0.0, 1.0, (n_states, n_controls)).tolist()
                    for _ in range(T - 1)],
        "terminal": rng.uniform(0.0, 1.0, n_states).tolist(),
        "terminal_stat": rng.uniform(0.0, 1.0, n_states).tolist(),
        "mixer": mixer,
    }
    return {"family": "discrete_chain",
            "kernel": {"state_grids": grids, "matrices": matrices,
                       "control_values": control_values},
            "costs": costs}


def path_objective(model, dk, t, i, j0, tail_jidx):
    """J_t(x_i; (u_j0, tail)) by explicit enumeration of all state paths.

    The (s, y) cost arguments stay frozen at (t, x_i); ``tail_jidx[k][m]``
    gives the tail's control-node index at (time k, state node m).
    """
    T = model.T
    y = float(model.grids[t][i])
    total = 0.0
    hmean = 0.0
    weights = list(dk.weights)  # each read of dk.weights builds a dense slice

    def rec(k, m, prob, acc):
        nonlocal total, hmean
        if k == T - 1:
            F = float(model.costs.terminal(t, y, float(model.grids[-1][m])))
            H = float(model.costs.terminal_stat(float(model.grids[-1][m])))
            total += prob * (acc + F)
            hmean += prob * H
            return
        j = j0 if k == t else int(tail_jidx[k][m])
        u = float(dk.controls[k][m, j])
        c = float(model.costs.running(k, t, y, float(model.grids[k][m]), u))
        row = weights[k][m, j]
        for m2 in range(row.size):
            if row[m2] > 0.0:
                rec(k + 1, m2, prob * row[m2], acc + c)

    rec(t, i, 1.0, 0.0)
    return total + float(model.costs.mixer(t, y, hmean))


def brute_force_equilibrium(model, dk):
    """Exhaustive backward best response on a discrete chain.

    Scores every control node at every (t, node) against the
    already-solved tail by path enumeration; ties break toward the
    smaller control value.  Returns (Policy, per-time control-node
    index arrays).
    """
    T = model.T
    jidx = [None] * (T - 1)
    controls = [None] * (T - 1)
    for t in range(T - 2, -1, -1):
        n = model.grids[t].size
        jt = np.zeros(n, dtype=int)
        ut = np.zeros(n)
        for i in range(n):
            best_j, best_v = 0, np.inf
            for j in range(dk.controls[t].shape[1]):
                v = path_objective(model, dk, t, i, j, jidx)
                if v < best_v:
                    best_j, best_v = j, v
            jt[i] = best_j
            ut[i] = dk.controls[t][i, best_j]
        jidx[t] = jt
        controls[t] = ut
    return Policy(controls=controls), jidx


def gaussian_tent_masses(grid, mean, std):
    """Exact integrals of the piecewise-linear hat functions against N(mean, std^2).

    The dense form, over every node of the grid, in the library's z-unit
    arithmetic and with its normal density and tail (``markeq.noise``), so
    that it equals the windowed form bit for bit: with z = (grid - mean) /
    std, cell k holds the mass P_k, taken from the smaller tail, and sends
    A_k = (z_{k+1} P_k + phi_{k+1} - phi_k) / (z_{k+1} - z_k) to its left
    node and P_k - A_k to its right node.  mean/std have shape
    (...,); returns weights of shape (..., len(grid)) plus the clamped tail
    mass (...,).  Mass below the first node goes to it untransformed
    (clamp), same above the last.
    """
    mean = np.asarray(mean, dtype=float)[..., None]
    std = np.asarray(std, dtype=float)[..., None]
    z = (grid - mean) / std
    phi = normal_pdf(z)
    # -Phi(z) below the mean and 1 - Phi(z) from it on, each from the smaller tail.
    G = np.copysign(normal_tail(z, phi), z)
    P = G[..., :-1] - G[..., 1:] + (np.signbit(z[..., :-1]) & ~np.signbit(z[..., 1:]))
    A = (z[..., 1:] * P + phi[..., 1:] - phi[..., :-1]) / (z[..., 1:] - z[..., :-1])
    out = np.zeros(z.shape)
    out[..., :-1] = A
    out[..., 1:] += P - A
    lo_tail = ndtr(z[..., 0])
    hi_tail = ndtr(-z[..., -1])
    out[..., 0] += lo_tail
    out[..., -1] += hi_tail
    return out, lo_tail + hi_tail


def gaussian_node_slopes(dk, t, nodes, U, g):
    """d/du of ``dk.node_rows(t, nodes, U) @ g``, U.shape, for Gaussian tent rows.

    The slope from a tent pass of its own: each ``_tent_blocks`` block's
    cell masses P and phi, against the slope of g on each cell, give d/dmean
    and d/dstd (sum_k P_k dg_k and sum_k (phi_k - phi_k+1) dg_k), which the
    drift and scale slopes of ``derivative`` carry to d/du.  g broadcasts to
    the rows.
    """
    from markeq.kernels import _sliding, _tent_blocks, derivative

    nodes, shape, grid = np.asarray(nodes, np.intp).reshape(-1), np.shape(U), dk.grids[t + 1]
    U = dk._feasible(t, nodes, np.asarray(U, dtype=float).reshape(nodes.size, -1))
    nodes, u = np.repeat(nodes, U.shape[1]), U.reshape(-1)  # one row per control
    g = np.broadcast_to(g, shape + grid.shape).reshape(u.size, grid.size)
    spec, x, noise = dk.spec, dk.grids[t][nodes], dk.spec.noise
    mu, sc = spec.landing_params(t, x, u)
    ends = dk.controls[t][nodes][:, [0, -1]].T
    mu_u, sc_u = (derivative(lambda v: f(t, x, v), u, *ends) for f in (spec.drift, spec.scale))
    dm, ds = np.empty((2, u.size))
    for rows, start, z, phi, P, *_ in _tent_blocks(grid, mu + sc * noise.mean, sc * noise.std):
        dg = np.diff(_sliding(g.reshape(-1), len(z))[rows * grid.size + start].T, axis=0)
        dg /= _sliding(np.diff(grid), len(z) - 1)[start].T
        dm[rows] = np.einsum("kr,kr->r", P, dg)
        ds[rows] = np.einsum("kr,kr->r", phi[:-1] - phi[1:], dg)
    return ((mu_u + sc_u * noise.mean) * dm + sc_u * noise.std * ds).reshape(shape)


def spread_mass_add_at(grid, points, masses):
    """``kernels.spread_mass`` by two ``np.add.at`` passes: all left shares, then all right."""
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


def dense_landing_rows(grid, mean, std):
    """Dense tent masses, clipped at 0, normalised left to right and floored as the library does."""
    W, clamp = gaussian_tent_masses(grid, mean, std)
    np.maximum(W, 0.0, out=W)
    W /= np.cumsum(W, axis=-1)[..., -1:]
    W *= W >= WEIGHT_FLOOR
    return W, clamp


def moment_landing_rows(grid, mean, std):
    """Landing rows by the first-moment formula, normalised by a pairwise sum.

    The dense form of the library's arithmetic before the z-unit form:
    per cell the mass P_k and first moment M1_k of the landing law give
    (x_{k+1} P_k - M1_k) / h_k to the left node and (M1_k - x_k P_k) / h_k
    to the right node.  The reference for the tent masses' accuracy; its
    normal CDF is scipy's, independent of the library's.
    """
    mean = np.asarray(mean, dtype=float)[..., None]
    std = np.asarray(std, dtype=float)[..., None]
    z = (grid - mean) / std
    Phi = special.ndtr(z)
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    P = Phi[..., 1:] - Phi[..., :-1]
    M1 = mean * P - std * (phi[..., 1:] - phi[..., :-1])
    h = np.diff(grid)
    W = np.zeros(z.shape)
    W[..., :-1] += (grid[1:] * P - M1) / h
    W[..., 1:] += (M1 - grid[:-1] * P) / h
    W[..., 0] += Phi[..., 0]
    W[..., -1] += 1.0 - Phi[..., -1]
    np.maximum(W, 0.0, out=W)
    W /= W.sum(axis=-1, keepdims=True)
    W *= W >= WEIGHT_FLOOR
    return W


def exact_tent_masses(grid, mean, std, digits=40):
    """Hat-function masses of N(mean, std^2) on ``grid``, tails clamped to the ends.

    Evaluated with mpmath at ``digits`` significant digits from the exact
    float inputs, per cell by its mass and first moment, and rounded to
    float at the end.
    """
    import mpmath

    with mpmath.workdps(digits):
        m, s = mpmath.mpf(float(mean)), mpmath.mpf(float(std))
        xs = [mpmath.mpf(float(x)) for x in grid]
        Phi = [mpmath.ncdf((x - m) / s) for x in xs]
        phi = [mpmath.npdf((x - m) / s) for x in xs]
        w = [mpmath.mpf(0)] * len(xs)
        for k in range(len(xs) - 1):
            P = Phi[k + 1] - Phi[k]
            M1 = m * P + s * (phi[k] - phi[k + 1])
            h = xs[k + 1] - xs[k]
            w[k] += (xs[k + 1] * P - M1) / h
            w[k + 1] += (M1 - xs[k] * P) / h
        w[0] += Phi[0]
        w[-1] += 1 - Phi[-1]
        return np.array([float(v) for v in w])


def flow_product_aux(model, dk, policy, t, eval_time=None):
    """``build_aux``'s btot and h_next from multi-step flow matrices.

    M[t+1 -> k], the law of x_k given x_{t+1} under the tail, is formed by
    successive products of the one-step matrices, and every conditional
    expectation is contracted against it separately.
    """
    T = model.T
    s = t if eval_time is None else eval_time
    ys = model.grids[s][:, None]
    mats = [np.eye(model.grids[t + 1].size)]
    for k in range(t + 1, T - 1):
        mats.append(mats[-1] @ policy_matrix(dk, k, policy.controls[k]))
    xT = model.grids[-1]
    h_next = mats[-1] @ np.asarray(model.costs.terminal_stat(xT), dtype=float)
    btot = np.asarray(model.costs.terminal(s, ys, xT[None, :]), dtype=float) @ mats[-1].T
    for k in range(t + 1, T - 1):
        uk = policy.controls[k]
        ck = np.asarray(model.costs.running(k, s, ys, model.grids[k][None, :], uk[None, :]),
                        dtype=float)
        btot = btot + ck @ mats[k - (t + 1)].T
    return btot, h_next


def deviation_summary_bytes(report):
    """``DeviationReport.to_csv``'s file, written one row at a time by ``csv.writer``.

    Each (t, node) row carries the probe with the largest gap, the first of
    equal gaps, found by a plain loop over the node's probes.
    """
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t", "node_index", "state", "V", "control", "J_dev", "gap", "probes"])
    for t, (ys, U, J, v) in enumerate(zip(report.states, report.probes, report.J_dev,
                                          report.values)):
        for i in range(J.shape[0]):
            p = 0
            for q in range(1, J.shape[1]):
                if v[i] - J[i, q] > v[i] - J[i, p]:
                    p = q
            gap = v[i] - J[i, p]
            w.writerow([t, i] + [f"{float(c):.17g}" for c in (ys[i], v[i], U[i, p], J[i, p], gap)]
                       + [J.shape[1]])
    return buf.getvalue().encode()


def probe_table_bytes(report):
    """``DeviationReport.probes_to_csv``'s file, written one row at a time by ``csv.writer``."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["t", "node_index", "control", "J_dev"])
    for t, (U, J) in enumerate(zip(report.probes, report.J_dev)):
        for i in range(J.shape[0]):
            for p in range(J.shape[1]):
                w.writerow([t, i, f"{float(U[i, p]):.17g}", f"{float(J[i, p]):.17g}"])
    return buf.getvalue().encode()


def bisection_precommit(model, dk, t0, nodes):
    """``evaluate._precommit`` with the fixed point found by plain bisection.

    The same bracket expansion, candidate tracking and final midpoint DP;
    only the search on m differs.  Every DP goes through
    ``markeq.evaluate._dp_linear``, looked up at call time, so a test can
    count them.
    """
    from markeq import evaluate as ev

    nodes = np.asarray(nodes, dtype=np.intp)
    ys = model.grids[t0][nodes]
    h_scale = max(1.0, float(np.max(np.abs(
        np.asarray(model.costs.terminal_stat(model.grids[-1]), dtype=float)))))
    dm = 1e-6 * h_scale

    def run(idx, m):
        y = ys[idx]
        lam = (np.asarray(model.costs.mixer(t0, y, m + dm), dtype=float)
               - np.asarray(model.costs.mixer(t0, y, m - dm), dtype=float)) / (2 * dm)
        ctrl = ev._dp_linear(model, dk, t0, nodes[idx], np.broadcast_to(lam, idx.shape))
        J, mean = ev._plan_objective(model, dk, t0, nodes[idx], ctrl)
        win = J < best_J[idx]
        for bk, ck in zip(best[t0:], ctrl[t0:]):
            bk[idx[win]] = ck[win]
        best_J[idx[win]] = J[win]
        return mean

    best = ev._dp_linear(model, dk, t0, nodes, np.zeros(ys.size))
    best_J, m0 = ev._plan_objective(model, dk, t0, nodes, best)
    act = np.flatnonzero(ev._mixer_depends_on_h(model, t0, ys))
    if act.size == 0:
        return best, best_J
    m0 = m0[act]
    ra = run(act, m0) - m0
    a, b, rb = m0.copy(), m0.copy(), ra.copy()
    step = np.full(act.size, max(0.25 * h_scale, 1e-3))
    for _ in range(ev.MAX_EXPAND):
        g = np.flatnonzero(~((ra * rb <= 0) & (a < b)))
        if g.size == 0:
            break
        step[g] *= 1.6
        a[g], b[g] = m0[g] - step[g], m0[g] + step[g]
        ra[g] = run(act[g], a[g]) - a[g]
        rb[g] = run(act[g], b[g]) - b[g]
    bracketed = np.flatnonzero((ra * rb <= 0) & (a < b))
    live = bracketed
    for _ in range(200):
        live = live[~(b[live] - a[live] < ev.M_TOL * h_scale)]
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        rm = run(act[live], mid) - mid
        left = ra[live] * rm <= 0
        b[live[left]] = mid[left]
        a[live[~left]], ra[live[~left]] = mid[~left], rm[~left]
    if bracketed.size:
        run(act[bracketed], 0.5 * (a[bracketed] + b[bracketed]))
    return best, best_J


def probe_row_plan_objective(model, dk, t, nodes, controls, probes=None, rows=(),
                             steps=None):
    """``evaluate._probe_objective`` that always pushes every probe's own row.

    The first-step rows of all P * Q probes are assembled in one array and
    each is propagated through every later step, one broadcast matmul per
    step; no landing-node tail is shared between probes, and every step's
    rows are rebuilt (``steps`` is ignored).  Same signature and outputs,
    so it can stand in for the library function.
    """
    def at(k):
        return np.atleast_2d(np.asarray(controls[k], dtype=float))

    nodes = np.asarray(nodes, dtype=np.intp)
    y = model.grids[t][nodes][:, None]
    if probes is None:
        probes = np.broadcast_to(at(t), (nodes.size, model.grids[t].size))[
            np.arange(nodes.size), nodes][:, None]
    probes = np.asarray(probes, dtype=float)
    q = sum(b.shape[1] for b in rows)
    d = np.concatenate([*rows, dk.node_rows(t, nodes, probes[:, q:])], axis=1)
    J = np.asarray(model.costs.running(t, t, y, y, probes), dtype=float)[..., None]
    for k in range(t + 1, model.T - 1):
        uk = at(k)
        ck = np.asarray(model.costs.running(k, t, y, model.grids[k], uk), dtype=float)
        J = J + d @ ck[..., None]
        d = d @ dk.node_rows(k, np.arange(uk.shape[1]), uk.T).transpose(1, 0, 2)
    xT = model.grids[-1]
    J = J + d @ np.asarray(model.costs.terminal(t, y, xT), dtype=float)[..., None]
    m = d @ np.asarray(model.costs.terminal_stat(xT), dtype=float)
    return J[..., 0] + np.asarray(model.costs.mixer(t, y, m), dtype=float), m
