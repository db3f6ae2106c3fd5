"""Objective evaluation, deviation certification, and baseline policies."""

import re

import numpy as np
import pytest

from markeq import (Costs, ExpUtilityParams, LQParams, MeanVarianceParams, Model,
                    ModelError, Policy, SolverError, build_model,
                    deviation_report, discretize, eval_objective_exact,
                    eval_objective_mc, exp_utility_model, lq_model, mv_chain_model,
                    mv_model, nonlinear_lq_variant, solve, solve_naive,
                    solve_precommitment, verify_equilibrium)

from _oracles import (bisection_precommit, brute_force_equilibrium, chain_config,
                      deviation_csv_bytes, probe_row_plan_objective)


# ---------------------------------------------------------------------------
# eval_objective_exact
# ---------------------------------------------------------------------------

def test_exact_eval_normalization():
    # All costs zero except G(h) = h with H = 1: J = 1 from any state.
    config = chain_config(np.random.default_rng(0), 3, 2, 2)
    config["costs"] = {"terminal_stat": [1.0, 1.0], "mixer": "square"}
    model = build_model(config)
    dk = discretize(model.kernel, model.grids, model.constraints)
    policy = Policy(controls=[dk.controls[t][:, 0].copy() for t in range(2)])
    # mixer "square" of h = 1 is also 1
    assert eval_objective_exact(model, dk, policy, 0, 0) == pytest.approx(1.0)
    assert eval_objective_exact(model, dk, policy, 1, 1) == pytest.approx(1.0)


def test_exact_eval_chain_path_enumeration(chain_small):
    model, dk, config = chain_small
    policy = Policy(controls=[np.array([-1.0, 1.0]), np.array([1.0, -1.0])])
    P = np.array(config["kernel"]["matrices"][0], dtype=float)
    run = [np.array(r, dtype=float) for r in config["costs"]["running"]]
    term = np.array(config["costs"]["terminal"], dtype=float)
    stat = np.array(config["costs"]["terminal_stat"], dtype=float)
    jsel = [np.array([0, 1]), np.array([1, 0])]  # control-node index per state
    # hand-summed expectation over the four terminal paths from (t=0, i=0)
    total, hmean = 0.0, 0.0
    for m1 in range(2):
        p1 = P[0, jsel[0][0], m1]
        c1 = run[1][m1, jsel[1][m1]]
        for m2 in range(2):
            p = p1 * P[m1, jsel[1][m1], m2]
            total += p * (run[0][0, jsel[0][0]] + c1 + term[m2])
            hmean += p * stat[m2]
    expected = total + hmean ** 2  # mixer "square"
    got = eval_objective_exact(model, dk, policy, 0, 0)
    assert got == pytest.approx(expected, abs=1e-14)


def test_exact_eval_mean_variance_moments():
    p = MeanVarianceParams(T=3)
    model = mv_model(p, n_x=201, n_u=61)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    i = 100
    # propagate first/second moments of terminal wealth directly: state-
    # constant controls make x_T = R^2 x + sum R^e u*_k Z_k in distribution
    x = float(model.grids[0][i])
    u0 = float(solution.policy.controls[0][i])
    u1 = float(solution.policy.controls[1][i])
    mean = p.R ** 2 * x + p.R * u0 * p.mu + u1 * p.mu
    var = p.R ** 2 * u0 ** 2 * p.sigma2 + u1 ** 2 * p.sigma2
    direct = var - p.gamma * mean
    got = eval_objective_exact(model, dk, solution.policy, 0, i)
    # grid interpolation carries a second-moment offset ~h^2/6 per step
    h = max(np.diff(model.grids[-1]))
    assert abs(got - direct) < h * h


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_deviation_report_rejects_a_tolerance_that_disables_the_check(chain_small, tol):
    # A NaN or negative tol failed every policy as "not certified".
    model, dk, _ = chain_small
    policy = solve(model, dk).policy
    with pytest.raises(ModelError, match="certification tolerance must be a finite number >= 0"):
        deviation_report(model, dk, policy, tol=tol)
    assert deviation_report(model, dk, policy, tol=0.0).tol == 0.0


def test_exact_eval_infeasible_policy_rejected(lq_small):
    model, dk, _ = lq_small
    from markeq import MarkeqError
    bad = Policy(controls=[np.full(model.grids[0].size, 99.0),
                           np.zeros(model.grids[1].size)])
    with pytest.raises(MarkeqError):
        eval_objective_exact(model, dk, bad, 0, 0)


# ---------------------------------------------------------------------------
# eval_objective_mc
# ---------------------------------------------------------------------------

def test_mc_matches_exact_on_lq(lq_small):
    model, dk, solution = lq_small
    i = model.grids[0].size // 2
    x = float(model.grids[0][i])
    exact = eval_objective_exact(model, dk, solution.policy, 0, i)
    # the grid evaluation carries the tent-interpolation carpet on the
    # quadratic terminal cost: exactly h^2/6 per expectation step
    carpet = sum(float(np.diff(model.grids[k]).max()) ** 2 / 6.0
                 for k in range(1, model.T))
    est, se = eval_objective_mc(model, solution.policy, 0, x,
                                n_paths=100_000, seed=7)
    assert se > 0
    assert abs(est - (exact - carpet)) <= 4.0 * se + 0.01


def test_mc_deterministic_given_seed(lq_small):
    model, _, solution = lq_small
    a = eval_objective_mc(model, solution.policy, 0, 0.3, n_paths=5000, seed=11)
    b = eval_objective_mc(model, solution.policy, 0, 0.3, n_paths=5000, seed=11)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_mc_stderr_scales_like_sqrt_paths(lq_small):
    model, _, solution = lq_small
    se_small = np.mean([eval_objective_mc(model, solution.policy, 0, 0.5,
                                          n_paths=4_000, seed=s).stderr
                        for s in range(10)])
    se_large = np.mean([eval_objective_mc(model, solution.policy, 0, 0.5,
                                          n_paths=64_000, seed=s).stderr
                        for s in range(10)])
    assert se_large == pytest.approx(se_small / 4.0, rel=0.15)


def test_mc_samples_density_noise(lq_small):
    # The same standard normal draws through DensityNoise's sampler as
    # through GaussianNoise give the same estimate; without one, MC refuses.
    from scipy.stats import norm

    from markeq import AdditiveNoise, DensityNoise, KernelError
    model, _, solution = lq_small

    def with_noise(noise):
        kernel = AdditiveNoise(drift=model.kernel.drift, scale=model.kernel.scale,
                               noise=noise, sigma_floor=model.kernel.sigma_floor)
        return Model(T=model.T, grids=model.grids, constraints=model.constraints,
                     kernel=kernel, costs=model.costs)

    sampled = with_noise(DensityNoise(density=norm.pdf, radius=9.0,
                                      sampler=lambda rng, size: rng.standard_normal(size)))
    a = eval_objective_mc(sampled, solution.policy, 0, 0.3, n_paths=5000, seed=11)
    b = eval_objective_mc(model, solution.policy, 0, 0.3, n_paths=5000, seed=11)
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)
    assert a.stderr == pytest.approx(b.stderr, rel=1e-12)
    with pytest.raises(KernelError, match="no sampler"):
        eval_objective_mc(with_noise(DensityNoise(density=norm.pdf, radius=9.0)),
                          solution.policy, 0, 0.3, n_paths=5000, seed=11)


# ---------------------------------------------------------------------------
# verify_equilibrium / deviation_report
# ---------------------------------------------------------------------------

def test_verify_solved_chain(chain_small):
    model, dk, _ = chain_small
    solution = solve(model, dk)
    report = verify_equilibrium(model, dk, solution)
    assert report.certified
    assert report.worst_gap <= 1e-9
    assert solution.diagnostics.deviation_gap == report.worst_gap


def test_verify_solved_lq(lq_small):
    model, dk, solution = lq_small
    report = verify_equilibrium(model, dk, solution, tol=1e-6)
    assert report.certified
    assert report.worst_gap <= 1e-6


def test_corrupted_policy_fails_certification(lq_small):
    model, dk, solution = lq_small
    step = float(np.diff(dk.controls[0][0]).max())
    bad = [c.copy() for c in solution.policy.controls]
    bad[0][7] += 2.0 * step
    report = deviation_report(model, dk, Policy(controls=bad), tol=1e-9)
    assert not report.certified
    assert report.worst_gap > 0
    assert report.argmax[0] == 0 and report.argmax[1] == 7


def test_deviation_report_csv_roundtrip(lq_small, tmp_path):
    import csv
    model, dk, solution = lq_small
    report = deviation_report(model, dk, solution.policy)
    path = tmp_path / "deviation.csv"
    report.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"t", "node_index", "state", "control",
                                     "J_dev", "V", "gap"}
    assert len(rows) == sum(J.size for J in report.J_dev)
    worst = max(float(r["gap"]) for r in rows)
    assert worst == pytest.approx(report.worst_gap, abs=1e-15)
    r = rows[-1]  # last probe of the last node at the last decision time
    t, i = model.T - 2, model.grids[model.T - 2].size - 1
    assert (int(r["t"]), int(r["node_index"])) == (t, i)
    assert float(r["control"]) == report.probes[t][i, -1]
    assert float(r["J_dev"]) == report.J_dev[t][i, -1]


@pytest.mark.parametrize("instance, per_node", [
    pytest.param("lq_small", None, id="lq_small"),
    pytest.param("chain_small", None, id="chain_small"),
    pytest.param("lq_small", 7, id="lq_small-7"),
])
def test_deviation_csv_matches_row_writer(instance, per_node, request, tmp_path):
    model, dk = request.getfixturevalue(instance)[:2]
    report = deviation_report(model, dk, solve(model, dk).policy,
                              probe_controls_per_node=per_node)
    report.to_csv(tmp_path / "deviation.csv")
    assert (tmp_path / "deviation.csv").read_bytes() == deviation_csv_bytes(report)


@pytest.mark.parametrize("instance, per_node", [
    pytest.param("lq_small", None, id="lq_small"),
    pytest.param("chain_small", None, id="chain_small"),
    pytest.param("lq_small", 7, id="lq_small-7"),
    pytest.param("chain_small", 7, id="chain_small-7"),
    pytest.param("mv_t5_small", None, id="mv_t5_small"),
    pytest.param("wide_next_grid", None, id="wide_next_grid"),
    pytest.param("wide_next_grid", 7, id="wide_next_grid-7"),
])
def test_deviation_probes_match_exact_evaluation(instance, per_node, request):
    # J_dev of probe (t, i, u) is the policy with controls[t][i] set to u.
    # Default probes take their rows from dk.weights[t], K evenly spaced
    # probes from node_rows; eval_objective_exact always uses node_rows.
    # The T=3 instances have 1-step tails, mv_t5_small up to 3 steps.
    model, dk, policy = _solved(instance, request)
    report = deviation_report(model, dk, policy, probe_controls_per_node=per_node)
    for t in range(model.T - 1):
        n = model.grids[t].size
        P = report.probe_resolution[t]
        assert report.probes[t].shape == report.J_dev[t].shape == (n, P)
        np.testing.assert_array_equal(report.states[t], model.grids[t])
        for i in sorted({0, n // 2, n - 1}):
            for p in (0, P // 2, P - 1):
                dev = [c.copy() for c in policy.controls]
                dev[t][i] = report.probes[t][i, p]
                j = eval_objective_exact(model, dk, Policy(controls=dev), t, i)
                assert report.J_dev[t][i, p] == pytest.approx(j, abs=1e-12)


@pytest.mark.parametrize("values, where", [
    (lambda v: [np.append(v[0], 0.0), v[1]], "values at t=0 have shape"),
    (lambda v: v[:1], "one array per time t=0..1, got 1"),
    (lambda v: [v[0][:, None], v[1]], "values at t=0 have shape")],
    ids=["long", "one-time", "column"])
def test_deviation_report_rejects_values_of_the_wrong_shape(lq_small, values, where):
    # These raised numpy's broadcast error, an IndexError, or broadcast the
    # gaps to (n, n, P) and failed further on.
    model, dk, solution = lq_small
    with pytest.raises(ModelError, match=re.escape(where)):
        deviation_report(model, dk, solution.policy, values=values(solution.values))


def test_deviation_report_rejects_a_policy_with_leading_gaps():
    # check_feasible and eval_objective_exact accept a policy that starts at
    # t=1; the certificate died on it with an AttributeError on None.
    model = lq_model(LQParams(), n_x=21, n_u=11)
    dk = discretize(model.kernel, model.grids, model.constraints)
    tail = Policy(controls=[None, np.zeros(21)])
    tail.check_feasible(model)
    assert np.isfinite(eval_objective_exact(model, dk, tail, 1, 10))
    with pytest.raises(ModelError, match="has none at t=0"):
        deviation_report(model, dk, tail)


@pytest.mark.parametrize("instance", ["lq_small", "chain_small"])
def test_deviation_report_values(instance, request):
    model, dk = request.getfixturevalue(instance)[:2]
    solution = solve(model, dk)
    report = deviation_report(model, dk, solution.policy)
    for t in range(model.T - 1):
        exact = [eval_objective_exact(model, dk, solution.policy, t, i)
                 for i in range(model.grids[t].size)]
        np.testing.assert_allclose(report.values[t], exact, rtol=0, atol=1e-12)
    given = deviation_report(model, dk, solution.policy, values=solution.values)
    for v, w in zip(given.values, solution.values):
        np.testing.assert_array_equal(v, w)


def _instance(name, request):
    """(model, dk) of a fixture instance or of a small MV / exp-utility / LQ model."""
    if name in ("lq_small", "chain_small"):
        return request.getfixturevalue(name)[:2]
    if name == "wide_next_grid":
        # 3 nodes at t=0 with M=3: 12 probes at t=0, fewer than the 41 landing nodes.
        base = lq_model(LQParams(T=3), n_x=41, n_u=3)
        model = Model(T=3, grids=[base.grids[0][::20], *base.grids[1:]],
                      constraints=base.constraints, kernel=base.kernel, costs=base.costs)
    else:
        model = (mv_model(MeanVarianceParams(T=5), n_x=41, n_u=11) if name == "mv_t5_small"
                 else exp_utility_model(ExpUtilityParams(), n_x=31, n_u=21))
    return model, discretize(model.kernel, model.grids, model.constraints)


def _solved(instance, request):
    """(model, dk, policy) of ``_instance`` with its solved equilibrium policy."""
    model, dk = _instance(instance, request)
    return model, dk, solve(model, dk).policy


@pytest.mark.parametrize("instance", ["lq_small", "mv_t5_small"])
def test_deviation_probe_value_independent_of_column_block(instance, request):
    # A probe's value depends on its first-step row only, not on the column
    # block holding it: under a policy that plays control node j0 everywhere,
    # grid probe j0 (rows read from dk.weights) and the policy's own probe
    # (rows from node_rows, the same bits) give the same J_dev, bit for bit.
    model, dk = _instance(instance, request)
    M = dk.controls[0].shape[1]
    for j0 in (0, 1, M // 3, M // 2, M - 2, M - 1):
        policy = Policy(controls=[U[:, j0].copy() for U in dk.controls])
        report = deviation_report(model, dk, policy)
        for t, (u, J) in enumerate(zip(report.probes, report.J_dev)):
            np.testing.assert_array_equal(u[:, j0], u[:, -1])
            np.testing.assert_array_equal(J[:, j0], J[:, -1], err_msg=f"j0={j0}, t={t}")


def _corrupted(dk, policy, t, i):
    """The policy with controls[t][i] moved to the control node farthest from it."""
    bad = [c.copy() for c in policy.controls]
    U = dk.controls[t][i]
    bad[t][i] = U[np.argmax(np.abs(U - bad[t][i]))]
    return Policy(controls=bad)


@pytest.mark.parametrize("per_node", [None, 7], ids=["grid", "7"])
@pytest.mark.parametrize("instance", ["lq_small", "chain_small", "mv_t5_small", "exp_small",
                                      "wide_next_grid"])
def test_deviation_report_matches_probe_row_propagation(instance, per_node, request,
                                                        monkeypatch):
    # The certificate pushes each landing node's law forward once per t;
    # the reference pushes every probe's own first-step row.  On the solved
    # policy the gaps are rounding noise, so only the worst gap's size is
    # compared; a corrupted control at the last decision time makes a
    # profitable deviation whose location both must name.
    import markeq.evaluate as ev
    model, dk, policy = _solved(instance, request)
    t = model.T - 2
    bad = _corrupted(dk, policy, t, model.grids[t].size // 2)
    for pol in (policy, bad):
        ours = deviation_report(model, dk, pol, probe_controls_per_node=per_node)
        with monkeypatch.context() as mp:
            mp.setattr(ev, "_probe_objective", probe_row_plan_objective)
            ref = deviation_report(model, dk, pol, probe_controls_per_node=per_node)
        scale = 1.0 + max(np.max(np.abs(J)) for J in ref.J_dev)
        for a, b, va, vb in zip(ours.J_dev, ref.J_dev, ours.values, ref.values):
            assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))
            assert np.all(np.abs(va - vb) <= 1e-12 * (1.0 + np.abs(vb)))
        assert abs(ours.worst_gap - ref.worst_gap) <= 1e-12 * scale
    assert ours.worst_gap > 1e-6 and ours.argmax == ref.argmax


def test_certificate_builds_each_policy_matrix_once(monkeypatch):
    # The own-control column at t is also the tail step at t of every
    # earlier decision time: T - 1 node_rows calls where there were 10.
    # Sharing them leaves J_dev bit for bit as one _probe_objective call per
    # t on freshly rebuilt own-control rows computes it.
    import markeq.evaluate as ev
    from markeq.kernels import DiscretizedKernel
    model = mv_model(MeanVarianceParams(T=5), n_x=41, n_u=11)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    calls = [0]
    node_rows = DiscretizedKernel.node_rows

    def counted(self, *args):
        calls[0] += 1
        return node_rows(self, *args)

    with monkeypatch.context() as mp:
        mp.setattr(DiscretizedKernel, "node_rows", counted)
        report = verify_equilibrium(model, dk, solution)
    assert calls[0] == model.T - 1
    own = [dk.node_rows(t, np.arange(u.size), u[:, None])
           for t, u in enumerate(solution.policy.controls)]
    for t in range(model.T - 1):
        nodes = np.arange(model.grids[t].size)
        probes = np.concatenate([dk.controls[t], solution.policy.controls[t][:, None]], axis=1)
        J, _ = ev._probe_objective(model, dk, t, nodes, solution.policy.controls, probes,
                                   [dk.weights[t], own[t]], own)
        assert np.array_equal(report.J_dev[t], J)


def _nan_running(base, where):
    """``base`` with a NaN running cost wherever ``where(t, x, u)`` holds."""
    c = base.costs
    running = lambda t, s, y, x, u: np.where(where(t, x, u), np.nan,
                                             c.running(t, s, y, x, u))
    return Model(T=base.T, grids=base.grids, constraints=base.constraints,
                 kernel=base.kernel, costs=Costs(running, c.terminal, c.terminal_stat,
                                                 c.mixer, assume_nonneg=True))


def test_nonfinite_deviation_objective_raises():
    # A NaN objective must not certify: NaN gaps compare false against tol.
    base = lq_model(LQParams(T=3), n_x=21, n_u=11)
    dk = discretize(base.kernel, base.grids, base.constraints)
    policy = solve(base, dk).policy
    everywhere = _nan_running(base, lambda t, x, u: np.isfinite(u))
    with pytest.raises(ModelError, match=r"^non-finite deviation objective at \(t=0, node=0, "):
        deviation_report(everywhere, dk, policy)
    x3, u0 = base.grids[0][3], dk.controls[0][3, 2]
    one = _nan_running(base, lambda t, x, u: (np.asarray(t) == 0) & (np.asarray(x) == x3)
                       & (np.asarray(u) == u0))
    with pytest.raises(ModelError, match=rf"\(t=0, node=3, control={u0:.17g}\): J_dev nan"):
        deviation_report(one, dk, policy)
    with pytest.raises(ModelError, match=r"\(t=1, node=4, control=.*\): J_dev .*, V nan"):
        deviation_report(base, dk, policy, values=[np.zeros(21), np.where(
            np.arange(base.grids[1].size) == 4, np.nan, 0.0)])


def test_per_time_argmax_locates_worst_gap(lq_small):
    model, dk, solution = lq_small
    report = deviation_report(model, dk, _corrupted(dk, solution.policy, 0, 7))
    assert len(report.per_time_argmax) == len(report.per_time_gap) == model.T - 1
    for t, (i, u) in enumerate(report.per_time_argmax):
        gaps = report.values[t][:, None] - report.J_dev[t]
        assert gaps.max() == report.per_time_gap[t]
        assert u in report.probes[t][i] and gaps[i].max() == report.per_time_gap[t]
    t = int(np.argmax(report.per_time_gap))
    assert report.argmax == (t, *report.per_time_argmax[t]) and report.argmax[:2] == (0, 7)


def test_verify_does_not_copy_weight_tensor():
    # Grid probes are contracted against dk.weights[t] in place and the
    # tail is pushed from the landing nodes, so the certificate's peak
    # allocation stays well below one time step's weight tensor.
    import tracemalloc
    model = mv_model(MeanVarianceParams(T=5), n_x=201, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    tracemalloc.start()
    try:
        report = verify_equilibrium(model, dk, solution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.certified
    assert peak < 0.5 * dk.weights[0].nbytes, (peak, dk.weights[0].nbytes)


# ---------------------------------------------------------------------------
# precommitment / naive baselines
# ---------------------------------------------------------------------------

def test_precommitment_reduces_to_dp_without_mixer(rng):
    config = chain_config(rng, T=4, n_states=3, n_controls=3, mixer="zero")
    model = build_model(config)
    dk = discretize(model.kernel, model.grids, model.constraints)
    # with G = 0 and (s, y)-independent tabulated costs the problem is
    # time-consistent: precommitment equals the equilibrium solution
    solution = solve(model, dk)
    policy, value = solve_precommitment(model, dk, 0, 1)
    for t in range(model.T - 1):
        np.testing.assert_array_equal(policy.controls[t],
                                      solution.policy.controls[t])
    assert value == pytest.approx(solution.values[0][1], abs=1e-12)


def test_linear_dp_objective_slope_matches_differences(monkeypatch):
    # The objective each DP step hands refine_bowls gives (value, slope):
    # the value matches the step's grid objective at the control nodes,
    # and the slope c_u + rows_u . V is within 1e-7 of 5-point differences
    # at h = 1e-4, whose own error (h against 2h) is under 1e-9 here.
    import markeq.evaluate
    refine, rng, checked = markeq.evaluate.refine_bowls, np.random.default_rng(4), []

    def spy(kernel, L, U, objective, *args, **kwargs):
        r = np.arange(L.shape[0])
        np.testing.assert_allclose(objective(r, U[:, 7])[0], L[:, 7], rtol=1e-12, atol=1e-12)
        u = rng.uniform(U[:, 1], U[:, -2])
        F = lambda v: objective(r, v)[0]
        fd, fd2 = ((F(u - 2 * h) - 8 * F(u - h) + 8 * F(u + h) - F(u + 2 * h)) / (12 * h)
                   for h in (1e-4, 2e-4))
        scale = 1.0 + np.abs(fd)
        assert np.max(np.abs(fd2 - fd) / scale) < 1e-9
        assert np.max(np.abs(objective(r, u)[1] - fd) / scale) < 1e-7
        checked.append(L.shape)
        return refine(kernel, L, U, objective, *args, **kwargs)

    monkeypatch.setattr(markeq.evaluate, "refine_bowls", spy)
    model = nonlinear_lq_variant(LQParams(T=3), n_x=31, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    markeq.evaluate._dp_linear(model, dk, 0, np.array([4, 20]), np.array([0.7, -1.3]))
    assert len(checked) == model.T - 1


def test_precommitment_rejects_nan_cost_like_solve():
    # A NaN running cost at the control node u = 0: both the equilibrium
    # solve and the baselines' DP must stop, not pick the NaN as a minimum.
    base = lq_model(LQParams(a=0.5), n_x=21, n_u=11)
    c = base.costs
    running = lambda t, s, y, x, u: np.where(np.asarray(u) == 0.0, np.nan,
                                             c.running(t, s, y, x, u))
    model = Model(T=base.T, grids=base.grids, constraints=base.constraints,
                  kernel=base.kernel, costs=Costs(running, c.terminal, c.terminal_stat,
                                                  c.mixer, assume_nonneg=True))
    dk = discretize(model.kernel, model.grids, model.constraints)
    with pytest.raises(SolverError):
        solve(model, dk)
    with pytest.raises(SolverError):
        solve_precommitment(model, dk, 0, 10)


def test_nan_cost_error_names_time_and_node():
    # The message names the decision time and node, and in the baselines'
    # DP also the plan's start node, not a flat row index.
    base = lq_model(LQParams(a=0.5), n_x=21, n_u=11)
    c = base.costs
    running = lambda t, s, y, x, u: np.where(np.asarray(u) == 0.0, np.nan,
                                             c.running(t, s, y, x, u))
    model = Model(T=base.T, grids=base.grids, constraints=base.constraints,
                  kernel=base.kernel, costs=Costs(running, c.terminal, c.terminal_stat,
                                                  c.mixer, assume_nonneg=True))
    dk = discretize(model.kernel, model.grids, model.constraints)
    with pytest.raises(SolverError, match=r"in node 6 at t=1, u=0\.0$"):
        solve(model, dk)
    with pytest.raises(SolverError,
                       match=r"in node 6 at t=1 of the plan from node 10 at t=0, u=0\.0$"):
        solve_precommitment(model, dk, 0, 10)
    with pytest.raises(SolverError,
                       match=r"in node 0 at t=1 of the plan from node 0 at t=0, u=0\.0$"):
        solve_naive(model, dk)


def _count_dps(monkeypatch):
    """Count the baselines' linear DPs (the reference search goes through the same name)."""
    import markeq.evaluate
    calls = [0]
    dp = markeq.evaluate._dp_linear

    def counted(*args):
        calls[0] += 1
        return dp(*args)

    monkeypatch.setattr(markeq.evaluate, "_dp_linear", counted)
    return calls


def test_precommit_fixed_point_matches_bisection_in_fewer_dps(monkeypatch):
    # A smooth residual m -> mean(m) - m: Illinois steps reach the same
    # plan's value with fewer DPs than bisection.
    from markeq.evaluate import _precommit
    model = nonlinear_lq_variant(LQParams(), n_x=31, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    calls = _count_dps(monkeypatch)
    n = model.grids[0].size
    for i in (0, n // 2, n - 1):
        calls[0] = 0
        _, J = _precommit(model, dk, 0, [i])
        ours = calls[0]
        calls[0] = 0
        _, J_ref = bisection_precommit(model, dk, 0, [i])
        assert J[0] == pytest.approx(J_ref[0], rel=0.0, abs=1e-10)
        assert ours < calls[0], (i, ours, calls[0])


def test_precommit_step_residual_runs_no_more_dps_than_bisection(monkeypatch):
    # On the MV chain the achieved mean is piecewise constant in m, so the
    # residual is step-shaped; the search may not fall behind bisection.
    from markeq.evaluate import _precommit
    chain = build_model({"family": "mean_variance_chain",
                         "state_grid": {"lo": -2.0, "hi": 4.0, "nodes": 31},
                         "control": {"lo": 0.0, "hi": 5.0, "nodes": 21}})
    dk = discretize(chain.kernel, chain.grids, chain.constraints)
    calls = _count_dps(monkeypatch)
    n = chain.grids[0].size
    for nodes in ([0], [n // 2], [n - 1], np.arange(n)):
        calls[0] = 0
        _precommit(chain, dk, 0, nodes)
        ours = calls[0]
        calls[0] = 0
        bisection_precommit(chain, dk, 0, nodes)
        assert ours <= calls[0], (len(nodes), ours, calls[0])


def test_precommitment_beats_equilibrium_at_origin(lq_small):
    model, dk, solution = lq_small
    i0 = model.grids[0].size // 2
    _, value = solve_precommitment(model, dk, 0, i0)
    assert value <= solution.values[0][i0] + 1e-9


def test_precommitment_beats_equilibrium_mean_variance():
    p = MeanVarianceParams(T=4)
    model = mv_chain_model(p)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    i0 = model.grids[0].size // 2
    _, value = solve_precommitment(model, dk, 0, i0)
    assert value <= solution.values[0][i0] + 1e-9


def test_naive_differs_from_equilibrium_on_lq():
    # a = 1 makes every baseline identically zero; a != 1 restores the
    # inconsistency between replanning and equilibrium play
    model = lq_model(LQParams(T=3, a=0.5), n_x=121, n_u=81)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    naive = solve_naive(model, dk)
    step = float(np.diff(dk.controls[0][0]).max())
    diff = max(np.max(np.abs(naive.controls[t] - solution.policy.controls[t]))
               for t in range(model.T - 1))
    assert diff > step


def test_naive_collapse_when_time_consistent(rng):
    config = chain_config(rng, T=3, n_states=2, n_controls=2, mixer="zero")
    model = build_model(config)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    naive = solve_naive(model, dk)
    for t in range(model.T - 1):
        np.testing.assert_array_equal(naive.controls[t],
                                      solution.policy.controls[t])


@pytest.mark.parametrize("model, nodes, atol", [
    (lq_model(LQParams(T=3, a=0.5), n_x=41, n_u=21), lambda n: range(n), 1e-9),
    # h-dependent G: the lockstep fixed-point search
    (nonlinear_lq_variant(LQParams(), n_x=15, n_u=11), lambda n: (0, n // 2, n - 1), 1e-6),
], ids=["lq", "nonlinear_lq"])
def test_naive_is_first_action_of_precommitment(model, nodes, atol):
    dk = discretize(model.kernel, model.grids, model.constraints)
    naive = solve_naive(model, dk)
    for t in range(model.T - 1):
        for i in nodes(model.grids[t].size):
            pre, _ = solve_precommitment(model, dk, t, i)
            assert naive.controls[t][i] == pytest.approx(pre.controls[t][i], abs=atol)


def test_certificate_independent_of_solver_tabulation():
    # The certificate and the baselines propagate forward; from the solver
    # they may take only the solution record and the generic bowl search,
    # never its backward tabulation or objectives.
    import ast
    import markeq.evaluate
    with open(markeq.evaluate.__file__) as fh:
        tree = ast.parse(fh.read())
    from_solver = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {a.name for a in node.names}
            if module in (".solver", "markeq.solver"):
                from_solver |= names
            assert not (module in (".", "markeq") and "solver" in names)
        elif isinstance(node, ast.Import):
            assert all(a.name != "markeq.solver" for a in node.names)
    assert from_solver <= {"EquilibriumSolution", "refine_bowls"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    used |= {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
             for a in n.names}
    banned = {"build_aux", "AuxiliaryBundle", "_assemble", "bellman_step"}
    assert not used & banned
    assert not [u for u in used if u.startswith("objective_")]
