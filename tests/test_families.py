"""Built-in model families and the mean-variance closed form."""

from dataclasses import astuple

import numpy as np
import pytest

from markeq import (AdditiveNoise, Costs, ExpUtilityParams, GaussianNoise, LQParams,
                    MeanVarianceParams, Model, ModelError, build_aux, discretize,
                    eval_objective_exact, eval_objective_mc, exp_utility_model,
                    levelset_probe, lq_model, mv_chain_model, mv_closed_form, mv_model,
                    nonlinear_lq_variant, solve, solve_naive, solve_precommitment,
                    validate_assumptions, value_identity_check, verify_equilibrium)


# ---------------------------------------------------------------------------
# mean-variance closed form
# ---------------------------------------------------------------------------

def test_mv_closed_form_spot_value():
    # R = 1 makes the single control gamma*mu/(2*sigma2) = 1 exactly
    p = MeanVarianceParams(T=2, R=1.0, mu=1.0, sigma2=1.0, gamma=2.0)
    cf = mv_closed_form(p)
    assert cf.controls.shape == (1,)
    assert cf.controls[0] == pytest.approx(1.0, abs=1e-12)
    assert cf.quad_a[0] == pytest.approx(1.0)
    assert cf.quad_b[0] == pytest.approx(-2.0)


def test_mv_closed_form_recursion_shape():
    p = MeanVarianceParams(T=6)
    cf = mv_closed_form(p)
    for t in range(p.T - 1):
        e = p.T - 2 - t
        assert cf.quad_a[t] == pytest.approx(p.R ** (2 * e) * p.sigma2)
        assert cf.controls[t] == pytest.approx(
            p.gamma * p.mu / (2.0 * p.sigma2 * p.R ** e))
    # earlier selves discount the future return, so invest more
    assert np.all(np.diff(cf.controls) > 0)


def test_mv_objective_quadratic_in_u():
    p = MeanVarianceParams(T=4)
    cf = mv_closed_form(p)
    for t in range(p.T - 1):
        us = np.linspace(-3.0, 8.0, 7)
        vals = cf.objective(t, 0.3, us)
        coef = np.polyfit(us, vals, 2)
        assert coef[0] == pytest.approx(cf.quad_a[t], rel=1e-9)
        assert coef[1] == pytest.approx(cf.quad_b[t], rel=1e-9)
        # stationary point matches the tabulated control
        assert -coef[1] / (2 * coef[0]) == pytest.approx(cf.controls[t])


def test_mv_solver_controls_state_independent():
    p = MeanVarianceParams(T=3)
    model = mv_model(p, n_x=161, n_u=121)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    cf = mv_closed_form(p)
    for t in range(p.T - 1):
        u = solution.policy.controls[t]
        assert np.ptp(u) <= 1e-6 * (1.0 + abs(cf.controls[t]))
        assert abs(float(np.median(u)) - cf.controls[t]) < 1e-6


def test_mv_value_quadratic_in_state():
    p = MeanVarianceParams(T=3)
    model = mv_model(p, n_x=161, n_u=121)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    x = model.grids[0]
    v = solution.values[0]
    coef = np.polyfit(x, v, 2)
    resid = v - np.polyval(coef, x)
    scale = float(np.max(np.abs(v))) + 1.0
    assert np.max(np.abs(resid)) <= 1e-6 * scale


def test_mv_chain_certifies_against_its_own_dynamics():
    # the chain variant's equilibrium is exact for the chain itself (controls
    # live on nodes), even though its moments differ from the continuous model
    from markeq import verify_equilibrium
    p = MeanVarianceParams(T=4)
    model = mv_chain_model(p)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    report = verify_equilibrium(model, dk, solution, tol=1e-9)
    assert report.certified
    assert report.worst_gap <= 1e-9
    # controls still land within a node step of the continuous closed form
    cf = mv_closed_form(p)
    for t in range(p.T - 1):
        step = float(np.diff(dk.controls[t][0]).max())
        med = float(np.median(solution.policy.controls[t]))
        assert abs(med - cf.controls[t]) <= 8.0 * step


def test_mv_bad_params():
    with pytest.raises(ModelError):
        MeanVarianceParams(sigma2=0.0)
    with pytest.raises(ModelError):
        MeanVarianceParams(R=0.9)
    with pytest.raises(ModelError):
        MeanVarianceParams(gamma=-1.0)


# ---------------------------------------------------------------------------
# LQ family
# ---------------------------------------------------------------------------

def test_lq_zero_gain_gives_zero_policy():
    # b = 0: controls cannot move the state, so only u^2 matters
    model = lq_model(LQParams(T=3, b=0.0), n_x=61, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    for t in range(model.T - 1):
        assert np.max(np.abs(solution.policy.controls[t])) < 1e-9


def test_lq_policy_affine_in_state():
    model = lq_model(LQParams(T=3, a=0.5), n_x=241, n_u=161)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    for t in range(model.T - 1):
        x = model.grids[t]
        u = solution.policy.controls[t]
        # fit on nodes whose optimizer is interior to the control window
        mask = (np.abs(u) < 4.5)
        coef = np.polyfit(x[mask], u[mask], 1)
        resid = u[mask] - np.polyval(coef, x[mask])
        assert np.max(np.abs(resid)) <= 1e-5 * (1.0 + np.max(np.abs(u)))


def test_lq_assumptions_pass():
    model = lq_model(LQParams(T=3))
    report = validate_assumptions(model)
    assert report.nonnegativity == "pass"
    assert report.mixer_monotone == "pass"
    assert report.compact_controls == "pass"


def test_lq_widening_grids_cover_dynamics():
    p = LQParams(T=4, a=1.5)
    model = lq_model(p, n_x=61, n_u=41)
    for t in range(p.T - 1):
        g, gn = model.grids[t], model.grids[t + 1]
        # one step from any node at max |control| plus 5 sigma stays covered
        reach = p.a * np.abs(g).max() + abs(p.b) * 5.0 + 5.0 * p.sigma
        assert gn[-1] >= reach - 1e-9 and gn[0] <= -reach + 1e-9


def test_nonlinear_lq_stat_nonnegative():
    model = nonlinear_lq_variant(LQParams(T=3), n_x=61, n_u=41)
    xs = np.linspace(-8, 8, 101)
    assert np.all(model.costs.terminal_stat(xs) >= 0)
    report = validate_assumptions(model)
    assert report.mixer_monotone == "pass"
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    # pushing wealth down lowers E[max(x_T, 0)], so optimal u <= 0 for x > 0
    x = model.grids[0]
    assert np.all(solution.policy.controls[0][x > 1.0] <= 1e-9)


# ---------------------------------------------------------------------------
# exponential utility with non-exponential discounting
# ---------------------------------------------------------------------------

def test_expu_default_solves_and_certifies():
    from markeq import verify_equilibrium
    model = exp_utility_model(ExpUtilityParams(T=3), n_x=81, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    report = verify_equilibrium(model, dk, solution, tol=1e-6)
    assert report.certified


def test_expu_constant_discount_is_time_consistent():
    # phi constant: exponential discounting degenerates to none; the naive
    # and equilibrium policies coincide
    from markeq import solve_naive
    p = ExpUtilityParams(T=3, phi=lambda tau: np.ones_like(np.asarray(tau, float)))
    model = exp_utility_model(p, n_x=81, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    naive = solve_naive(model, dk)
    for t in range(model.T - 1):
        assert np.max(np.abs(naive.controls[t]
                             - solution.policy.controls[t])) <= 1e-7


def test_expu_boundary_controls_reported_not_fatal():
    # tiny risk aversion pushes the position to the upper bound everywhere
    p = ExpUtilityParams(T=3, gamma=0.05, u_hi=1.0)
    model = exp_utility_model(p, n_x=81, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    assert solution.diagnostics.boundary_hits
    assert np.all(np.abs(np.concatenate(solution.policy.controls)
                         - p.u_hi) < 1e-12)


def test_expu_bad_params():
    with pytest.raises(ModelError):
        ExpUtilityParams(gamma=0.0)
    with pytest.raises(ModelError):
        ExpUtilityParams(u_lo=0.0)
    p = ExpUtilityParams(phi=lambda tau: -np.ones_like(np.asarray(tau, float)))
    with pytest.raises(ModelError):
        p.discount(1.0)


# ---------------------------------------------------------------------------
# Callables that return what they compute
# ---------------------------------------------------------------------------

def _zeros(*args):
    return np.zeros(np.broadcast(*args).shape)


def _pad(*args):
    """0.0 * (sum of the arguments): the padding a callable once needed for its full shape."""
    return 0.0 * sum(np.asarray(a, dtype=float) for a in args)


def _variants(family):
    """The shipped model, and the same model built from padded and from bare callables.

    The padded callables return the full broadcast shape of their
    arguments themselves; the bare ones return what they compute (a
    scalar 0.0, a terminal cost that ignores y) and leave the broadcast
    to ``Costs`` and ``AdditiveNoise``.
    """
    if family == "mean_variance":
        p = MeanVarianceParams(T=3)
        shipped = mv_model(p, n_x=31, n_u=11)
        sd = float(np.sqrt(p.sigma2))
        drift = lambda t, x, u: p.R * x + p.mu * u
        kernels = (AdditiveNoise(drift, lambda t, x, u: np.maximum(np.abs(u), 1e-6) * sd + _pad(x),
                                 GaussianNoise(), 1e-7 * sd),
                   AdditiveNoise(drift, lambda t, x, u: np.maximum(np.abs(u), 1e-6) * sd,
                                 GaussianNoise(), 1e-7 * sd))
        costs = (Costs(running=lambda t, s, y, x, u: _zeros(t, s, y, x, u),
                       terminal=lambda s, y, xT: np.square(xT) - p.gamma * xT + _pad(s, y),
                       terminal_stat=lambda xT: np.asarray(xT, dtype=float),
                       mixer=lambda s, y, h: -np.square(h) + _pad(s, y), assume_nonneg=False),
                 Costs(running=lambda t, s, y, x, u: 0.0,
                       terminal=lambda s, y, xT: np.square(xT) - p.gamma * xT,
                       terminal_stat=lambda xT: xT,
                       mixer=lambda s, y, h: -np.square(h), assume_nonneg=False))
    else:
        p = LQParams(T=3)
        build = lq_model if family == "lq" else nonlinear_lq_variant
        shipped = build(p, n_x=21, n_u=11)
        drift = lambda t, x, u: p.a * x + p.b * u
        kernels = (AdditiveNoise(drift, lambda t, x, u: np.full(np.broadcast(x, u).shape, p.sigma),
                                 GaussianNoise(), 0.5 * p.sigma),
                   AdditiveNoise(drift, lambda t, x, u: p.sigma, GaussianNoise(), 0.5 * p.sigma))
        running = (lambda t, s, y, x, u: np.square(u) + _pad(s, y, x),
                   lambda t, s, y, x, u: np.square(u))
        if family == "lq":
            costs = (Costs(running[0], lambda s, y, xT: np.square(xT - y) + _pad(s),
                           lambda xT: np.zeros_like(xT), lambda s, y, h: _zeros(s, y, h)),
                     Costs(running[1], lambda s, y, xT: np.square(xT - y),
                           lambda xT: 0.0, lambda s, y, h: 0.0))
        else:
            costs = (Costs(running[0], lambda s, y, xT: _zeros(s, y, xT),
                           lambda xT: np.maximum(xT, 0.0),
                           lambda s, y, h: np.square(h) + _pad(s, y)),
                     Costs(running[1], lambda s, y, xT: 0.0, lambda xT: np.maximum(xT, 0.0),
                           lambda s, y, h: np.square(h)))
    return [shipped] + [Model(T=shipped.T, grids=shipped.grids, constraints=shipped.constraints,
                              kernel=k, costs=c) for k, c in zip(kernels, costs)]


def _pipeline(model):
    """Every output of the pipeline on ``model``, by name."""
    dk = discretize(model.kernel, model.grids, model.constraints)
    sol = solve(model, dk)
    i = model.grids[0].size // 2
    report = verify_equilibrium(model, dk, sol)
    aux = build_aux(model, dk, sol.policy, 0)
    level = levelset_probe(model, dk, aux, 0, i, r=float(sol.values[0][i]) + 0.5,
                           window=(-10.0, 10.0))
    pre, pre_J = solve_precommitment(model, dk, 0, i)
    mc = eval_objective_mc(model, sol.policy, 0, float(model.grids[0][i]), 500, seed=11)
    return {"solve": (sol.policy.controls, sol.values),
            "verify": (report.J_dev, report.values, report.worst_gap),
            "value_identity": [value_identity_check(model, dk, sol, t)
                               for t in range(model.T - 2)],
            "levelset": (level.intervals, level.min_value),
            "precommitment": (pre.controls, pre_J),
            "naive": solve_naive(model, dk).controls,
            "exact": eval_objective_exact(model, dk, sol.policy, 0, i),
            "mc": (mc.estimate, mc.stderr),
            "assumptions": astuple(validate_assumptions(model, samples=1000, seed=2))}


def _same(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.shape(a) == np.shape(b) and bool(np.all(np.asarray(a) == np.asarray(b)))


@pytest.mark.parametrize("family", ["lq", "nonlinear_lq", "mean_variance"])
def test_bare_callables_match_padded_bit_for_bit(family):
    shipped, padded, bare = (_pipeline(m) for m in _variants(family))
    for name in shipped:
        assert _same(padded[name], shipped[name]), name
        assert _same(bare[name], shipped[name]), name
