"""Backward induction: auxiliaries, Bellman step, identities, level sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markeq import (ControlConstraint, Costs, DensityNoise, ExpUtilityParams, GaussianNoise,
                    LQParams, MeanVarianceParams, Model, Policy, SolveOptions,
                    bellman_step, build_aux, build_model,
                    discretize, eval_objective_exact, exp_utility_model, golden_section,
                    levelset_probe, lq_model, mv_chain_model, mv_closed_form,
                    mv_model, nonlinear_lq_variant, objective_L, solve,
                    value_identity_check)
from markeq import DiscreteChain, SolverError
from markeq.kernels import AdditiveNoise
from markeq.solver import NOISE, U_TOL, objective_grid, objective_nodes, refine_bowls

from _oracles import (brute_force_equilibrium, chain_config, flow_product_aux,
                      path_objective)


def _pure_control_cost_model(T=3, n_x=11, n_u=21):
    """C = u^2, F = G = H = 0: minimizer is u* = 0 everywhere."""
    kernel = AdditiveNoise(
        drift=lambda t, x, u: np.asarray(x, dtype=float) + 0.0 * np.asarray(u),
        scale=lambda t, x, u: np.full(np.broadcast(np.asarray(x),
                                                   np.asarray(u)).shape, 1.0),
        noise=GaussianNoise(), sigma_floor=0.5)
    zeros = lambda *a: np.zeros(np.broadcast(*(np.asarray(v) for v in a)).shape)
    costs = Costs(running=lambda t, s, y, x, u: np.square(np.asarray(u, dtype=float))
                  + zeros(s, y, x),
                  terminal=lambda s, y, xT: zeros(s, y, xT),
                  terminal_stat=lambda xT: np.zeros_like(np.asarray(xT, dtype=float)),
                  mixer=lambda s, y, h: zeros(s, y, h))
    grids = [np.linspace(-6, 6, n_x) for _ in range(T)]
    cons = [ControlConstraint.interval(-5, 5, n_u) for _ in range(T - 1)]
    return Model(T=T, grids=grids, constraints=cons, kernel=kernel, costs=costs)


# ---------------------------------------------------------------------------
# golden_section
# ---------------------------------------------------------------------------

def test_golden_section_quadratic():
    x, fx = golden_section(lambda u: (u - 0.3) ** 2 + 1.0, -2.0, 2.0)
    assert abs(x - 0.3) < 1e-8
    assert abs(fx - 1.0) < 1e-14


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-1.5, 1.5), a=st.floats(0.01, 10.0))
def test_golden_section_random_quadratics(c, a):
    x, _ = golden_section(lambda u: a * (u - c) ** 2, -2.0, 2.0, tol=1e-10)
    assert abs(x - c) < 1e-7


def test_golden_section_boundary_minimum():
    x, _ = golden_section(lambda u: u, 0.0, 1.0)
    assert x < 1e-6


def _random_brackets(seed, k):
    """Brackets 1e-3..3 wide, each with an interior point c."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2.0, 0.0, k)
    hi = lo + np.geomspace(1e-3, 3.0, k)
    return lo, hi, lo + (hi - lo) * rng.uniform(0.05, 0.95, k), rng


@pytest.mark.parametrize("build, per_bracket", [
    (lambda: mv_model(MeanVarianceParams(T=5), n_x=201, n_u=41), 2.0),
    (lambda: lq_model(LQParams(a=0.5), n_x=61, n_u=41), 2.0),
    (lambda: nonlinear_lq_variant(), 3.0)], ids=["mv_t5", "lq_a05", "nonlinear_lq"])
def test_refinement_builds_few_landing_rows_per_bracket(monkeypatch, build, per_bracket):
    # The slope search starts at the vertex of the grid parabola, takes a
    # Newton step on its curvature and secant steps after: an mv_t5-shaped
    # solve (MV T=5, 201x41) built 21.2 landing rows per searched bracket
    # with golden-section searches.  Rows from both builders count:
    # node_rows_and_slope's for the searches and node_rows' for the tail
    # step matrices.
    import markeq.solver
    from markeq.kernels import DiscretizedKernel
    model = build()
    dk = discretize(model.kernel, model.grids, model.constraints)
    rows, brackets = [0], [0]
    search = markeq.solver.slope_search

    def counting(build_rows):
        def counted(self, t, nodes, U):
            rows[0] += np.size(U)
            return build_rows(self, t, nodes, U)
        return counted

    def searched(f, U3, L3, tol):
        brackets[0] += len(U3)
        return search(f, U3, L3, tol)

    for name in ("node_rows", "node_rows_and_slope"):
        monkeypatch.setattr(DiscretizedKernel, name, counting(getattr(DiscretizedKernel, name)))
    monkeypatch.setattr(markeq.solver, "slope_search", searched)
    solution = solve(model, dk)
    assert brackets[0] > 0 and rows[0] <= per_bracket * brackets[0]
    if isinstance(model.kernel.noise, GaussianNoise) and model.T == 5:
        cf = mv_closed_form(MeanVarianceParams(T=5))
        for t in range(model.T - 1):
            np.testing.assert_allclose(solution.policy.controls[t], cf.controls[t],
                                       rtol=0.0, atol=1e-10)


def _quartic(c, u):
    d = u - c
    return (d * d) * (d * d) + 1.0


def _asymmetric(c, u):
    d = u - c
    return np.where(d > 0.0, 9.0 * d * d, d * d) - 2.0


def _outside(c, u):
    # Minimum beyond the bracket's upper end: the search ends at hi.
    d = u - c - 3.5
    return 0.5 * d * d


@pytest.mark.parametrize("bowl", [_quartic, _asymmetric, _outside],
                         ids=["quartic", "asymmetric", "boundary"])
def test_golden_section_attains_bowl_minimum(bowl):
    # Flat-bottomed, lopsided and outside-the-bracket bowls: the search
    # returns f at its own point, within the noise floor of the minimum on
    # the bracket, which for _outside lies at hi.
    lo, hi, c, _ = _random_brackets(17, 25)
    for r in range(lo.size):
        f = lambda u: bowl(c[r], u)
        x, fx = golden_section(f, lo[r], hi[r])
        best = f(hi[r]) if bowl is _outside else f(c[r])
        assert fx == f(x)
        assert abs(fx - best) <= NOISE * (1.0 + abs(best)), r
        if bowl is _outside:
            assert abs(x - hi[r]) <= U_TOL, r


@pytest.mark.parametrize("curvature", [1e5, 1e7])
def test_golden_section_locates_minimum_above_noise_floor(curvature):
    # Non-quadratic bowls whose values leave the noise floor 64 eps (|f| + 1)
    # within tol / 2 of the minimiser: the search must end within tol.
    k = 20
    lo, hi, c, _ = _random_brackets(23, k)
    tol = 1e-9

    def cubic(u, c):
        d = u - c
        return curvature * d * d * (1.0 + 0.3 * d)

    def log_cosh(u, c):
        z = np.sqrt(curvature) * (u - c)
        return np.logaddexp(z, -z)  # log(2 cosh z): a bowl that turns linear

    for f in (cubic, log_cosh):
        for r in range(k):
            x, _ = golden_section(lambda u: f(u, c[r]), lo[r], hi[r], tol=tol)
            assert abs(x - c[r]) <= tol, (f.__name__, r)


def test_solve_refinement_stops_at_noise_floor(monkeypatch):
    # The MV objective is quadratic in u to rounding, so the grid
    # parabola's vertex is each root and the Newton step after it falls
    # under u_tol: one batched call per decision time.  A bracket must stop
    # there, not bisect on down to a u_tol-wide bracket (30 more calls).
    # The value-only golden-section search took up to 45 calls here.
    import markeq.solver
    calls = [0]
    search = markeq.solver.slope_search

    def counted(f, U3, L3, tol):
        def g(i, u):
            calls[0] += 1
            return f(i, u)
        return search(g, U3, L3, tol)

    monkeypatch.setattr(markeq.solver, "slope_search", counted)
    p = MeanVarianceParams(T=3)
    model = mv_model(p, n_x=101, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    assert calls[0] <= model.T - 1
    cf = mv_closed_form(p)
    for t in range(model.T - 1):
        np.testing.assert_allclose(solution.policy.controls[t], cf.controls[t], atol=1e-9)


def test_solve_rebuilds_few_landing_rows(monkeypatch):
    # Each searched bracket rebuilds a few landing rows: this solve builds
    # 404 in all, the tail step matrix's included.
    from markeq.kernels import DiscretizedKernel
    rows = [0]
    node_rows = DiscretizedKernel.node_rows

    def counted(self, t, nodes, U):
        rows[0] += np.size(U)
        return node_rows(self, t, nodes, U)

    p = MeanVarianceParams(T=3)
    model = mv_model(p, n_x=101, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    monkeypatch.setattr(DiscretizedKernel, "node_rows", counted)
    solution = solve(model, dk)
    assert rows[0] <= 5000
    cf = mv_closed_form(p)
    for t in range(model.T - 1):
        np.testing.assert_allclose(solution.policy.controls[t], cf.controls[t], atol=1e-9)


def test_solve_builds_each_tail_step_matrix_once(monkeypatch):
    # A T=5 solve needs the tail steps P_3, P_2 and P_1 once each; built
    # inside every build_aux, they took (T-1)(T-2)/2 = 6 policy_matrix calls.
    import markeq.solver
    model = mv_model(MeanVarianceParams(T=5), n_x=61, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    policy, values = Policy(controls=[None] * 4), [None] * 4
    for t in range(3, -1, -1):  # the sweep that rebuilds every tail step
        aux = build_aux(model, dk, policy if t < 3 else None, t)
        policy.controls[t], values[t], _ = bellman_step(model, dk, aux, t)
    built = []
    policy_matrix = markeq.solver.policy_matrix
    monkeypatch.setattr(markeq.solver, "policy_matrix",
                        lambda dk, t, u: built.append(t) or policy_matrix(dk, t, u))
    solution = solve(model, dk)
    assert sorted(built) == [1, 2, 3]
    for t in range(4):
        assert np.array_equal(solution.policy.controls[t], policy.controls[t])
        assert np.array_equal(solution.values[t], values[t])


# ---------------------------------------------------------------------------
# refine_bowls
# ---------------------------------------------------------------------------

U3 = np.array([[-1.0, 0.0, 1.0]])


def _bowls(c):
    """Objective of refine_bowls whose row r is (u - c[r])^2 and its slope, rows tallied."""
    seen = set()

    def f(r, u):
        seen.update(r.tolist())
        return (u - c[r]) ** 2, 2.0 * (u - c[r])
    return f, seen


def test_refine_bowls_tie_keeps_grid_node():
    # A flat value with a slope that leads the search to u = 0.5: it ends
    # far from u = 0 at the same value, which is not strictly lower.
    flat = lambda r, u: (np.ones(np.shape(u)), u - 0.5)
    j, u, v, refined = refine_bowls(None, np.array([[2.0, 1.0, 2.0]]), U3, flat)
    assert (j[0], u[0], v[0], refined.size) == (1, 0.0, 1.0, 0)


def test_refine_bowls_refines_a_tied_grid_minimum():
    # L ties at u = 0 and u = 1 and the optimum 0.5 lies between them: the
    # first argmin's bracket [-1, 1] holds it, and the slope search finds
    # it at least as well as a scalar golden_section on that bracket.
    f, _ = _bowls(np.array([0.5]))
    U = np.array([[-1.0, 0.0, 1.0, 2.0]])
    j, u, v, refined = refine_bowls(None, (U - 0.5) ** 2, U, f)
    _, v_golden = golden_section(lambda x: (x - 0.5) ** 2, -1.0, 1.0)
    assert (j[0], refined.tolist()) == (1, [0])
    assert abs(u[0] - 0.5) <= 1e-9 and v[0] <= v_golden


def test_refine_bowls_evaluates_a_vertex_on_the_grid_node():
    # 9 d^2 right of c = 0.5 and d^2 left of it: the grid values on
    # (-1, 0, 1) are (2.25, 0.25, 2.25), so the grid parabola's vertex is
    # the node itself, while the minimum is not.  The search must still
    # evaluate there and go on to c, not stop at the node unevaluated.
    def lopsided(r, u):
        d = u - 0.5
        return np.where(d > 0.0, 9.0 * d * d, d * d), np.where(d > 0.0, 18.0 * d, 2.0 * d)

    L = lopsided(None, U3)[0]
    np.testing.assert_array_equal(L, [[2.25, 0.25, 2.25]])
    j, u, v, refined = refine_bowls(None, L, U3, lopsided)
    assert (j[0], refined.tolist()) == (1, [0])
    assert abs(u[0] - 0.5) <= 1e-8


def test_refine_bowls_rows_limit_the_search():
    c = np.array([0.3, -0.2, 0.1])
    f, seen = _bowls(c)
    L = np.array([[1.0, 0.1, 0.5]] * 3)
    j, u, v, refined = refine_bowls(None, L, np.repeat(U3, 3, axis=0), f, rows=[0, 2])
    assert seen == {0, 2} and refined.tolist() == [0, 2]
    np.testing.assert_allclose(u[[0, 2]], c[[0, 2]], atol=1e-8)
    assert (u[1], v[1]) == (0.0, 0.1)
    np.testing.assert_array_equal(j, 1)


def test_refine_bowls_chain_runs_no_search():
    chain = DiscreteChain(matrices=[np.full((1, 3, 2), 0.5)],
                          control_values=[U3[0]])
    f, seen = _bowls(np.array([0.3]))
    j, u, v, refined = refine_bowls(chain, np.array([[1.0, 0.1, 0.5]]), U3, f)
    assert not seen and refined.size == 0 and (u[0], v[0]) == (0.0, 0.1)


def test_refine_bowls_non_finite_entries_never_win():
    L = np.array([[np.nan, 2.0, -np.inf, 1.0], [np.nan, np.inf, np.nan, np.nan]])
    U = np.tile(np.arange(4.0), (2, 1))
    f, _ = _bowls(np.zeros(2))
    with pytest.raises(SolverError, match="every control node of row 1"):
        refine_bowls(None, L, U, f)
    j, u, v, _ = refine_bowls(None, L[:1], U[:1], f)
    assert (j[0], u[0], v[0]) == (3, 3.0, 1.0)


def test_refine_bowls_non_finite_search_value_raises():
    nan = lambda r, u: (np.full(np.shape(u), np.nan),) * 2
    with pytest.raises(SolverError, match="non-finite objective in row 0"):
        refine_bowls(None, np.array([[2.0, 1.0, 2.0]]), U3, nan)


def test_refine_bowls_non_finite_search_slope_raises():
    nan_slope = lambda r, u: (np.ones(np.shape(u)), np.full(np.shape(u), np.nan))
    with pytest.raises(SolverError, match=r"non-finite objective slope in row 0, u=0.0"):
        refine_bowls(None, np.array([[2.0, 1.0, 2.0]]), U3, nan_slope)


def test_refine_bowls_ends_by_bisection_on_a_kink():
    # |u - c| + (u - c)^2: L' jumps from below -1 to above 1 at c, so the
    # secant steps leave the sign bracket and it is bisected onto c.  The
    # search must not raise, and no value rises above its grid node's.
    c = np.array([0.3, -0.2, 0.05, 0.0])
    calls = [0]

    def kink(r, u):
        calls[0] += 1
        d = u - c[r]
        return np.abs(d) + d * d, np.sign(d) + 2.0 * d

    U = np.repeat(U3, c.size, axis=0)
    L = np.abs(U - c[:, None]) + (U - c[:, None]) ** 2
    j, u, v, refined = refine_bowls(None, L, U, kink)
    assert np.all(v <= L[np.arange(c.size), j])
    # It stops once a step is under tol = 1e-9: at most 2 tol from the kink.
    np.testing.assert_allclose(u, c, rtol=0.0, atol=2e-9)
    assert refined.tolist() == [0, 1, 2] and calls[0] >= 25  # bisection, not secant steps


def test_solve_refines_across_the_mean_variance_scale_kink():
    # MV's scale max(|u|, 1e-6) sd has a kink at u = 0, and with gamma near 0
    # the grid argmin of some nodes is u = 0: their searches on [-0.1, 0.1]
    # start on the kink, whose u-slopes come from a stencil across it.  No
    # search may raise, and no value may rise above its node's grid minimum.
    model = mv_model(MeanVarianceParams(T=3, gamma=1e-9), n_x=41, n_u=21, u_lo=-1.0, u_hi=1.0)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    for t in range(model.T - 1):
        aux = build_aux(model, dk, solution.policy if t < model.T - 2 else None, t)
        L = objective_grid(model, dk, aux, t)
        assert np.any(dk.controls[t][0, L.argmin(axis=1)] == 0.0)
        assert np.all(solution.values[t] <= L.min(axis=1))
        np.testing.assert_array_equal(
            solution.values[t],
            objective_nodes(model, dk, aux, t, np.arange(L.shape[0]), solution.policy.controls[t]))


def test_refinement_slopes_stay_inside_the_control_interval():
    # Scale 0.3 + max(|u|, 1e-6) kinks at u = 0, the lower end of [0, 4e-3],
    # and 1e4 (u - 1.2e-3)^2 puts every optimum inside the bracket [0, 2e-3].
    # A stencil of step 1e-3 centred there would reach across the kink and
    # take the scale's slope as 1.17, not 1: the controls then missed the
    # optimum by 4.7e-6 and the values by 2.2e-7.  One-sided stencils keep
    # the search within 1e-8 of a scalar golden_section at tol 1e-12.
    kernel = AdditiveNoise(drift=lambda t, x, u: x + u,
                           scale=lambda t, x, u: 0.3 + np.maximum(np.abs(u), 1e-6),
                           noise=GaussianNoise(), sigma_floor=0.3)
    zeros = lambda *a: np.zeros(np.broadcast(*(np.asarray(v) for v in a)).shape)
    costs = Costs(running=lambda t, s, y, x, u: 1e4 * (u - 1.2e-3) ** 2 + zeros(s, y, x),
                  terminal=lambda s, y, xT: xT ** 2 + zeros(s, y),
                  terminal_stat=lambda xT: np.zeros_like(xT),
                  mixer=lambda s, y, h: zeros(s, y, h))
    model = Model(T=2, grids=[np.linspace(-1, 1, 21), np.linspace(-4, 4, 161)],
                  constraints=[ControlConstraint.interval(0.0, 4e-3, 5)],
                  kernel=kernel, costs=costs)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    aux = build_aux(model, dk, None, 0)
    assert np.all(objective_grid(model, dk, aux, 0).argmin(axis=1) == 1)
    for i in range(21):
        u_ref, v_ref = golden_section(lambda u: objective_L(model, dk, aux, 0, i, u),
                                      0.0, 2e-3, tol=1e-12)
        assert abs(solution.policy.controls[0][i] - u_ref) <= 1e-8
        assert solution.values[0][i] <= v_ref + 1e-12


def test_derivative_calls_f_inside_its_interval_only():
    # MV's scale max(|u|, 1e-6) is linear on [1e-6, 4e-3]: one-sided stencils
    # near the ends give its slope 1 to rounding, and f never sees a control
    # outside [0, hi], even where that is narrower than a default step.
    from markeq.kernels import derivative
    seen = []

    def scale(v):
        seen.append(v)
        return np.maximum(np.abs(v), 1e-6)

    for hi in (4e-3, 1e-4):
        u = np.array([1e-6, 1e-5, 0.5 * hi, hi - 1e-5, hi])
        seen.clear()
        np.testing.assert_allclose(derivative(scale, u, 0.0, hi), 1.0, rtol=1e-9)
        assert np.min(seen) >= 0.0 and np.max(seen) <= hi


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
def test_refine_bowls_rejects_a_tolerance_that_disables_refinement(tol):
    # NaN refined nothing and 0 or less refined every interior node.
    f, seen = _bowls(np.array([0.3]))
    with pytest.raises(SolverError, match="refinement tolerance must be a finite number > 0"):
        refine_bowls(None, np.array([[1.0, 0.1, 0.5]]), U3, f, tol=tol)
    assert not seen
    model = _pure_control_cost_model(n_x=5, n_u=5)
    dk = discretize(model.kernel, model.grids, model.constraints)
    with pytest.raises(SolverError, match="got " + repr(tol)):
        solve(model, dk, SolveOptions(u_tol=tol))


def test_refine_bowls_non_finite_bracket_end_raises():
    # The bracket ends' values come from L, so a non-finite one raises as
    # the objective's own value there would.
    f, seen = _bowls(np.zeros(1))
    with pytest.raises(SolverError, match=r"non-finite objective in row 0, u=-1.0"):
        refine_bowls(None, np.array([[np.nan, 1.0, 2.0]]), U3, f)
    assert not seen


def test_step_minimiser_is_not_forked():
    # The grid argmin and the slope search of a step live in refine_bowls
    # only, so the Bellman step and the baselines' DP cannot drift apart;
    # golden_section is no step's search.
    import ast
    import markeq.evaluate
    import markeq.solver
    step = {"argmin", "slope_search"}
    for module in (markeq.solver, markeq.evaluate):
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            called = {getattr(n.func, "attr", getattr(n.func, "id", None))
                      for n in ast.walk(top) if isinstance(n, ast.Call)}
            assert "golden_section" not in called, (module.__name__, getattr(top, "name", None))
            if getattr(top, "name", None) == "refine_bowls":
                assert called >= step
            else:
                assert not called & step, (module.__name__, getattr(top, "name", None))


def test_search_steps_build_rows_and_slope_in_one_call():
    # The solver's and the baselines' step objectives take a batch's rows and
    # their slope from node_rows_and_slope, never from node_slopes.
    import ast
    import markeq.evaluate
    import markeq.solver
    for module in (markeq.solver, markeq.evaluate):
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        called = {getattr(n.func, "attr", getattr(n.func, "id", None))
                  for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert "node_slopes" not in called, module.__name__
        assert "node_rows_and_slope" in called, module.__name__


def test_search_step_objectives_run_one_tent_pass(monkeypatch):
    # Each objective call of a search step, in the solve and in the linear
    # DPs of the baselines, starts _tent_blocks once (twice with a rows
    # pass and a slopes pass).
    import markeq.evaluate
    import markeq.kernels
    import markeq.solver
    model = nonlinear_lq_variant(LQParams(T=3), n_x=31, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    blocks, per_call = [], []
    tent_blocks = markeq.kernels._tent_blocks
    monkeypatch.setattr(markeq.kernels, "_tent_blocks",
                        lambda *a: blocks.append(1) or tent_blocks(*a))

    def counting(module):
        real = module.refine_bowls

        def refine(kernel, L, U, objective, *a, **kw):
            def counted(r, u):
                before = len(blocks)
                out = objective(r, u)
                per_call.append(len(blocks) - before)
                return out
            return real(kernel, L, U, counted, *a, **kw)
        monkeypatch.setattr(module, "refine_bowls", refine)

    for module, run in ((markeq.solver, lambda: solve(model, dk)),
                        (markeq.evaluate,
                         lambda: markeq.evaluate._dp_linear(model, dk, 0, np.array([0, 15, 30]),
                                                            np.zeros(3)))):
        counting(module)
        per_call.clear()
        run()
        assert per_call and set(per_call) == {1}, module.__name__


# ---------------------------------------------------------------------------
# build_aux
# ---------------------------------------------------------------------------

def test_aux_terminal_time_degenerates():
    model = _pure_control_cost_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    aux = build_aux(model, dk, None, model.T - 2)
    np.testing.assert_array_equal(
        aux.h_next, model.costs.terminal_stat(model.grids[-1]))


def test_aux_chain_flow_product(chain_small):
    model, dk, _ = chain_small
    tail = Policy(controls=[None, np.array([-1.0, 1.0])])
    aux = build_aux(model, dk, tail, 0)
    # Q is the one-step matrix at t=1 under the tail controls
    Q = np.stack([dk.weights[1][0, 0], dk.weights[1][1, 1]])
    xT, ys = model.grids[-1], model.grids[0]
    C1 = model.costs.running(1, 0, ys[:, None], model.grids[1][None, :], np.array([[-1.0, 1.0]]))
    np.testing.assert_allclose(
        aux.btot, model.costs.terminal(0, ys[:, None], xT[None, :]) @ Q.T + C1, atol=1e-15)
    np.testing.assert_allclose(
        aux.h_next, Q @ model.costs.terminal_stat(xT), atol=1e-15)


def test_aux_mean_variance_h_is_affine():
    p = MeanVarianceParams(T=4)
    model = mv_model(p, n_x=121, n_u=81)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    cf = mv_closed_form(p)
    for t in range(p.T - 1):
        aux = build_aux(model, dk, solution.policy, t)
        e = p.T - 2 - t
        expect = p.R ** e * model.grids[t + 1] + cf.h0[t]
        assert np.max(np.abs(aux.h_next - expect)) < 1e-8


def _assert_sweep_matches_flow_products(model, dk, policy):
    for t in range(model.T - 1):
        cases = [None] + ([t + 1] if t <= model.T - 3 else [])  # + value_identity_check's
        for eval_time in cases:
            aux = build_aux(model, dk, policy, t, eval_time=eval_time)
            btot, h_next = flow_product_aux(model, dk, policy, t, eval_time)
            np.testing.assert_allclose(aux.btot, btot, rtol=0, atol=1e-12)
            np.testing.assert_allclose(aux.h_next, h_next, rtol=0, atol=1e-12)


def test_incremental_flows_match_scratch(chain_small):
    model, dk, _ = chain_small
    _assert_sweep_matches_flow_products(model, dk, solve(model, dk).policy)


def test_incremental_flows_match_scratch_off_grid_tail():
    model = lq_model(LQParams(a=0.5, T=4), n_x=61, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    assert any(t >= 1 for t, _ in solution.diagnostics.refined)  # tail controls off the grid
    _assert_sweep_matches_flow_products(model, dk, solution.policy)


# ---------------------------------------------------------------------------
# objective_L / bellman_step
# ---------------------------------------------------------------------------

def _density_lq(n_x, n_u):
    """Default LQ with its normal noise given as a generic density (quadrature rows)."""
    from scipy.stats import norm
    base = lq_model(LQParams(T=3), n_x=n_x, n_u=n_u)
    k = base.kernel
    kernel = AdditiveNoise(drift=k.drift, scale=k.scale, sigma_floor=k.sigma_floor,
                           noise=DensityNoise(density=norm.pdf, radius=9.0))
    return Model(T=base.T, grids=base.grids, constraints=base.constraints, kernel=kernel,
                 costs=base.costs)


def test_objective_grid_equals_objective_nodes_bit_for_bit(lq_small):
    # The bracket ends refine_bowls takes from L are the values a search
    # would compute there, whatever the batch: for tent, quadrature and
    # chain rows alike.
    models = [exp_utility_model(ExpUtilityParams(), n_x=31, n_u=21),
              mv_chain_model(MeanVarianceParams(T=3), n_x=21, n_u=21), _density_lq(41, 21)]
    solved = [lq_small] + [(m, dk, solve(m, dk)) for m, dk in
                           ((m, discretize(m.kernel, m.grids, m.constraints)) for m in models)]
    for model, dk, solution in solved:
        for t in range(model.T - 1):
            aux = build_aux(model, dk, solution.policy if t < model.T - 2 else None, t)
            L = objective_grid(model, dk, aux, t)
            U = dk.controls[t]
            nodes = np.arange(U.shape[0])
            assert np.array_equal(objective_nodes(model, dk, aux, t, nodes, U), L)
            assert np.array_equal(objective_nodes(model, dk, aux, t, nodes[::7], U[::7, 3]),
                                  L[::7, 3])
            assert np.array_equal(objective_nodes(model, dk, aux, t, nodes[5:9],
                                                  U[5:9, 10:17]), L[5:9, 10:17])


@pytest.mark.parametrize("build", [
    lambda: mv_model(MeanVarianceParams(T=4), n_x=61, n_u=21),
    lambda: nonlinear_lq_variant(LQParams(T=4), n_x=61, n_u=41)],
    ids=["mean_variance", "nonlinear_lq"])
def test_refinement_objective_slope_matches_differences(build):
    # The objective refine_bowls searches gives L as objective_nodes does,
    # bit for bit, and L' = c_u + rows_u . (btot_i + G'(E[h]) h) within
    # 1e-7 of 5-point differences of objective_nodes at h = 1e-4, whose
    # own error (h against 2h) is under 1e-9 here.
    from markeq.solver import _objective_slope
    model = build()
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    rng = np.random.default_rng(2)
    for t in range(model.T - 1):
        aux = build_aux(model, dk, solution.policy if t < model.T - 2 else None, t)
        nodes = np.arange(model.grids[t].size)
        lo, hi = dk.controls[t][0, [0, -1]]
        u = rng.uniform(lo + 0.05 * (hi - lo), hi - 1e-3, nodes.size)
        L, slope = _objective_slope(model, dk, aux, t, nodes, u)
        F = lambda v: objective_nodes(model, dk, aux, t, nodes, v)
        assert np.array_equal(L, F(u))
        fd, fd2 = ((F(u - 2 * h) - 8 * F(u - h) + 8 * F(u + h) - F(u + 2 * h)) / (12 * h)
                   for h in (1e-4, 2e-4))
        scale = 1.0 + np.abs(fd)
        assert np.max(np.abs(fd2 - fd) / scale) < 1e-9
        assert np.max(np.abs(slope - fd) / scale) < 1e-7


def test_objective_pure_control_cost():
    model = _pure_control_cost_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    tail = Policy(controls=[None, np.zeros(model.grids[1].size)])
    aux = build_aux(model, dk, tail, 0)
    for u in (-2.0, 0.0, 1.5):
        assert objective_L(model, dk, aux, 0, 5, u) == pytest.approx(u * u, abs=1e-12)


def test_objective_mean_variance_one_step_moments():
    p = MeanVarianceParams(T=2)
    model = mv_model(p, n_x=201, n_u=61)
    dk = discretize(model.kernel, model.grids, model.constraints)
    aux = build_aux(model, dk, None, 0)
    i = 100
    x = float(model.grids[0][i])

    def direct(u):
        mean = p.R * x + p.mu * u
        return (u * u * p.sigma2 + mean * mean) - p.gamma * mean - mean * mean

    # The grid carries a constant interpolation offset on E[x'^2] that
    # cancels in differences; compare objective increments.
    base_L = objective_L(model, dk, aux, 0, i, 0.5)
    for u in (1.1, 1.7, 3.1):
        inc = objective_L(model, dk, aux, 0, i, u) - base_L
        assert abs(inc - (direct(u) - direct(0.5))) < 1e-8


def test_objective_substitution_identity(chain_small):
    # L(t, i, u) equals J_t(x_i; (u, tail)) of the one-step-deviated policy.
    model, dk, _ = chain_small
    solution = solve(model, dk)
    for t in range(model.T - 1):
        aux = build_aux(model, dk, solution.policy, t)
        for i in range(model.grids[t].size):
            for u in dk.controls[t][i]:
                dev = [c.copy() if c is not None else None
                       for c in solution.policy.controls]
                dev[t] = dev[t].copy()
                dev[t][i] = u
                for k in range(t):
                    dev[k] = None
                j = eval_objective_exact(model, dk, Policy(controls=dev), t, i)
                assert abs(objective_L(model, dk, aux, t, i, float(u)) - j) < 1e-9


def test_bellman_step_pure_quadratic():
    model = _pure_control_cost_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    tail = Policy(controls=[None, np.zeros(model.grids[1].size)])
    aux = build_aux(model, dk, tail, 0)
    controls, values, diag = bellman_step(model, dk, aux, 0)
    np.testing.assert_allclose(controls, 0.0, atol=1e-9)
    np.testing.assert_allclose(values, 0.0, atol=1e-12)


def test_bellman_step_mv_last_period_unit_control():
    p = MeanVarianceParams(R=1.0, mu=1.0, sigma2=1.0, gamma=2.0, T=2)
    model = mv_model(p, x_lo=-2, x_hi=2, n_x=241, u_lo=0.0, u_hi=3.0, n_u=61)
    dk = discretize(model.kernel, model.grids, model.constraints)
    aux = build_aux(model, dk, None, 0)
    controls, values, _ = bellman_step(model, dk, aux, 0)
    np.testing.assert_allclose(controls, 1.0, atol=1e-7)


def test_bellman_step_batched_refinement_matches_scalar():
    # Reference: one scalar golden_section per interior first grid argmin,
    # ties included, as refine_bowls documents: a tie of two nodes can hide
    # an optimum between them.  With a = 0.5 the optimum is state dependent
    # and off the control grid.
    model = lq_model(LQParams(a=0.5, T=3), n_x=61, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    for t in range(model.T - 1):
        aux = build_aux(model, dk, solution.policy if t < model.T - 2 else None, t)
        controls, values, diag = bellman_step(model, dk, aux, t)
        refined = diag.refined_nodes
        assert refined and refined == sorted(refined)
        L = objective_grid(model, dk, aux, t)
        U = dk.controls[t]
        for i, j in enumerate(np.argmin(L, axis=1)):
            if not 0 < j < L.shape[1] - 1:
                assert i not in refined
                continue
            u_ref, v_ref = golden_section(
                lambda u: objective_L(model, dk, aux, t, i, u), U[i, j - 1], U[i, j + 1])
            if v_ref < L[i, j] - 1e-12:
                assert i in refined
            if i in refined:
                assert abs(controls[i] - u_ref) <= 1e-8
                assert values[i] == pytest.approx(v_ref, abs=1e-12)


def test_refinement_leaves_grid_optimum_alone():
    # MV T=5: the t=3 optimum u* = 2.5 is a control node; searches that end
    # within u_tol of it must not replace the node or count as refined
    model = mv_model(MeanVarianceParams(T=5), n_x=201, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    assert not [ti for ti in solution.diagnostics.refined if ti[0] == 3]
    assert np.all(solution.policy.controls[3] == 2.5)


def test_bellman_grid_argmin_property(chain_small):
    model, dk, _ = chain_small
    solution = solve(model, dk)
    for t in range(model.T - 1):
        aux = build_aux(model, dk, solution.policy, t)
        for i in range(model.grids[t].size):
            for u in dk.controls[t][i]:
                assert objective_L(model, dk, aux, t, i, float(u)) \
                    >= solution.values[t][i] - 1e-12


def test_chain_best_response_matches_brute_force(rng):
    config = chain_config(rng, T=3, n_states=2, n_controls=2, mixer="square")
    model = build_model(config)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    oracle_policy, _ = brute_force_equilibrium(model, dk)
    for t in range(model.T - 1):
        np.testing.assert_array_equal(solution.policy.controls[t],
                                      oracle_policy.controls[t])


# ---------------------------------------------------------------------------
# solve / value identity
# ---------------------------------------------------------------------------

def test_solve_t2_is_single_step():
    model = _pure_control_cost_model(T=2)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    assert len(solution.policy.controls) == 1
    np.testing.assert_allclose(solution.policy.controls[0], 0.0, atol=1e-9)


def test_solve_deterministic_repeatability(lq_small):
    model, dk, solution = lq_small
    again = solve(model, dk)
    for t in range(model.T - 1):
        np.testing.assert_array_equal(solution.policy.controls[t],
                                      again.policy.controls[t])
        np.testing.assert_array_equal(solution.values[t], again.values[t])


def test_value_identity_chain(chain_small):
    model, dk, _ = chain_small
    solution = solve(model, dk)
    for t in range(model.T - 2):
        assert value_identity_check(model, dk, solution, t) <= 1e-10


def test_value_identity_quadrature(lq_small):
    model, dk, solution = lq_small
    for t in range(model.T - 2):
        assert value_identity_check(model, dk, solution, t) <= 1e-8


def test_value_identity_rejects_out_of_range(lq_small):
    model, dk, solution = lq_small
    from markeq import SolverError
    with pytest.raises(SolverError):
        value_identity_check(model, dk, solution, model.T - 2)


# ---------------------------------------------------------------------------
# levelset_probe
# ---------------------------------------------------------------------------

def test_levelset_pure_quadratic_interior():
    model = _pure_control_cost_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    tail = Policy(controls=[None, np.zeros(model.grids[1].size)])
    aux = build_aux(model, dk, tail, 0)
    report = levelset_probe(model, dk, aux, 0, 5, r=1.0)
    assert not report.suspect_non_inf_compact
    assert len(report.intervals) == 1
    lo, hi = report.intervals[0]
    assert lo == pytest.approx(-1.0, abs=0.02)
    assert hi == pytest.approx(1.0, abs=0.02)


def test_levelset_monotone_cost_escapes_window():
    # C = u on [0, 5]: the sublevel set runs past any window edge.
    kernel = AdditiveNoise(
        drift=lambda t, x, u: np.asarray(x, dtype=float) + 0.0 * np.asarray(u),
        scale=lambda t, x, u: np.full(np.broadcast(np.asarray(x),
                                                   np.asarray(u)).shape, 1.0),
        noise=GaussianNoise(), sigma_floor=0.5)
    zeros = lambda *a: np.zeros(np.broadcast(*(np.asarray(v) for v in a)).shape)
    costs = Costs(running=lambda t, s, y, x, u: np.asarray(u, dtype=float)
                  + zeros(s, y, x),
                  terminal=lambda s, y, xT: zeros(s, y, xT),
                  terminal_stat=lambda xT: np.zeros_like(np.asarray(xT, dtype=float)),
                  mixer=lambda s, y, h: zeros(s, y, h))
    grids = [np.linspace(-6, 6, 11) for _ in range(2)]
    cons = [ControlConstraint.interval(0.0, 5.0, 11)]
    model = Model(T=2, grids=grids, constraints=cons, kernel=kernel, costs=costs)
    dk = discretize(model.kernel, model.grids, model.constraints)
    aux = build_aux(model, dk, None, 0)
    report = levelset_probe(model, dk, aux, 0, 5, r=10.0, window=(0.0, 7.0))
    assert report.suspect_non_inf_compact
