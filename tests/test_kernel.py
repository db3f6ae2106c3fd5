"""Kernel discretization, expectations, TV distance, continuity probe, cache."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from markeq import (AdditiveNoise, ControlConstraint, DensityNoise, DiscreteChain,
                    GaussianNoise, InfeasibleControlError, KernelError,
                    LQParams, MeanVarianceParams, Model, lq_model, PointIndicator, StepFunction,
                    build_model, discretize,
                    exact_expectation, exp_utility_model,
                    load_kernel_cache, mv_chain_model, mv_model, nonlinear_lq_variant,
                    policy_matrix, save_kernel_cache, setwise_continuity_probe, tv_distance)
from markeq.kernels import (BAND_CHUNK, TENT_BLOCK, WEIGHT_FLOOR, DiscretizedKernel,
                            _landing_rows, spread_mass)

from _oracles import (dense_landing_rows, exact_tent_masses, gaussian_node_slopes,
                      moment_landing_rows, spread_mass_add_at)


def _gauss_kernel(a=1.0, b=1.0, sigma=1.0, floor_frac=0.5):
    return AdditiveNoise(
        drift=lambda t, x, u: a * np.asarray(x, dtype=float) + b * np.asarray(u, dtype=float),
        scale=lambda t, x, u: np.full(np.broadcast(np.asarray(x), np.asarray(u)).shape, sigma),
        noise=GaussianNoise(),
        sigma_floor=floor_frac * sigma)


def _grids(T, lo, hi, n):
    return [np.linspace(lo, hi, n) for _ in range(T)]


def _constraints(T, lo, hi, n):
    return [ControlConstraint.interval(lo, hi, n) for _ in range(T - 1)]


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------

def test_near_deterministic_kernel_concentrates_mass():
    k = AdditiveNoise(drift=lambda t, x, u: np.asarray(x, dtype=float) + 0.0 * np.asarray(u),
                      scale=lambda t, x, u: np.full(
                          np.broadcast(np.asarray(x), np.asarray(u)).shape, 1e-8),
                      noise=GaussianNoise(), sigma_floor=1e-9)
    grids = _grids(2, -1, 1, 21)
    dk = discretize(k, grids, _constraints(2, -1, 1, 3))
    i = 10  # grid node x = 0
    row = dk.weights[0][i, 0]
    assert row[i] > 1.0 - 1e-6


@pytest.mark.parametrize("part", ["drift", "scale"])
def test_discretize_rejects_nan_landing_law(part):
    # NaN for u > 0.6, i.e. at the last of the controls -1, -0.5, 0, 0.5, 1.
    nan = lambda u: np.where(np.asarray(u) > 0.6, np.nan, 0.0)
    laws = {"drift": lambda t, x, u: np.asarray(x, dtype=float) + np.asarray(u, dtype=float),
            "scale": lambda t, x, u: np.ones(np.broadcast(np.asarray(x), np.asarray(u)).shape)}
    bad = laws[part]
    laws[part] = lambda t, x, u: bad(t, x, u) + nan(u)
    k = AdditiveNoise(drift=laws["drift"], scale=laws["scale"], noise=GaussianNoise(),
                      sigma_floor=0.5)
    with pytest.raises(KernelError, match="non-finite landing mean or std at t=0"):
        discretize(k, _grids(3, -6, 6, 11), _constraints(3, -1, 1, 5))


def test_gaussian_moments_match():
    k = _gauss_kernel(a=0.0, b=0.0, sigma=1.0)
    grids = _grids(2, -10, 10, 401)
    dk = discretize(k, grids, _constraints(2, -1, 1, 3))
    row = dk.weights[0][200, 1]
    mean = row @ grids[1]
    var = row @ grids[1] ** 2 - mean ** 2
    assert abs(mean) <= 1e-6
    assert abs(var - 1.0) <= 1e-3


def _density_gauss_kernel(k=None):
    """``k`` (default _gauss_kernel()) with its standard normal noise given as a generic density."""
    k = k or _gauss_kernel()
    return AdditiveNoise(drift=k.drift, scale=k.scale,
                         noise=DensityNoise(density=norm.pdf, radius=9.0, cdf_fn=norm.cdf),
                         sigma_floor=k.sigma_floor)


def test_density_noise_discretizes_close_to_exact():
    grids = _grids(2, -8, 8, 201)
    cons = _constraints(2, -1, 1, 9)
    exact = discretize(_gauss_kernel(), grids, cons)
    dens = discretize(_density_gauss_kernel(), grids, cons)
    assert dens.build_method == "quadrature"
    v = grids[1] ** 2
    # compare rows whose landing mass stays far from the grid boundary
    sl = slice(88, 114)  # |x| <= 1, so |mean| <= 2 with 6 sigma inside
    assert np.max(np.abs(exact.weights[0][sl] @ v - dens.weights[0][sl] @ v)) < 2e-3


def test_density_noise_cdf_gives_exact_step_expectation():
    V = StepFunction(breaks=[-0.4, 0.0, 1.1], levels=[2.0, 1.0, -1.0, 0.5])
    for u in (-0.7, 0.3):
        e = exact_expectation(_density_gauss_kernel(), 0, 0.2, u, V)
        assert e == pytest.approx(exact_expectation(_gauss_kernel(), 0, 0.2, u, V), abs=1e-12)
    no_cdf = AdditiveNoise(drift=lambda t, x, u: x + u, scale=lambda t, x, u: 1.0,
                           noise=DensityNoise(density=norm.pdf, radius=9.0))
    with pytest.raises(KernelError, match="no CDF"):
        exact_expectation(no_cdf, 0, 0.2, 0.3, V)


def test_chain_passes_through(chain_small):
    model, dk, config = chain_small
    np.testing.assert_array_equal(
        dk.weights[0][1, 0], np.array(config["kernel"]["matrices"][0])[1, 0])


def test_rows_stochastic():
    k = _gauss_kernel()
    dk = discretize(k, _grids(3, -6, 6, 61), _constraints(3, -2, 2, 11))
    dk.check_rows()
    for W in dk.weights:
        assert np.all(W >= 0)
        np.testing.assert_allclose(W.sum(axis=-1), 1.0, atol=1e-12)


def _tiny(W):
    return np.count_nonzero((W > 0) & (W < WEIGHT_FLOOR))


@pytest.mark.parametrize("density", [False, True], ids=["auto", "quadrature"])
def test_no_weight_below_floor(density):
    # sigma 0.3 on [-8, 8]: most tent masses of a row are far beyond 11 sigma
    k = _gauss_kernel(a=1.0, b=1.0, sigma=0.3)
    k = _density_gauss_kernel(k) if density else k
    dk = discretize(k, _grids(2, -8, 8, 161), _constraints(2, -2, 2, 9))
    assert _tiny(dk.weights[0]) == 0
    assert np.count_nonzero(dk.weights[0] == 0) > dk.weights[0].size // 2
    rows = dk.node_rows(0, np.arange(161), np.full((161, 3), [-1.3, 0.01, 1.77]))
    assert _tiny(rows) == 0
    assert np.count_nonzero(rows == 0) > rows.size // 2


def _tent_rows(grid, mean, std):
    """Windowed tent masses, asserted equal bit for bit to the dense form."""
    mean, std = np.broadcast_arrays(np.asarray(mean, dtype=float), std)
    W, clamp = _landing_rows(grid, mean, std, GaussianNoise())
    Wd, cd = dense_landing_rows(grid, mean.reshape(-1), std.reshape(-1))
    assert np.array_equal(W.reshape(Wd.shape), Wd)
    assert np.array_equal(clamp.reshape(cd.shape), cd)
    return W


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
@pytest.mark.parametrize("per_point", [True, False])
def test_spread_mass_equals_add_at_bit_for_bit(lead, per_point):
    # Uneven nodes; points on nodes, between them and beyond both ends, so
    # nodes collect shares from several points, left and right.
    rng = np.random.default_rng(11)
    grid = np.cumsum(rng.uniform(0.1, 1.0, 9)) - 3.0
    Q = 24
    points = rng.uniform(grid[0] - 2.0, grid[-1] + 2.0, lead + (Q,))
    points[..., :9] = grid
    points[..., 9:12] = grid[0] - np.array([0.0, 0.5, 7.0])
    points[..., 12:15] = grid[-1] + np.array([0.0, 0.5, 7.0])
    masses = rng.uniform(0.0, 1.0, lead + (Q,) if per_point else (Q,))
    got = spread_mass(grid, points, masses)
    assert got.shape == lead + grid.shape
    assert np.array_equal(got, spread_mass_add_at(grid, points, masses))


def test_tent_masses_narrow_window_equal_dense(rng):
    grid = np.linspace(-5.0, 5.0, 101)  # spacing 0.1
    W = _tent_rows(grid, rng.uniform(-5.0, 5.0, 300), 0.005)  # 14 stds < one spacing
    assert np.count_nonzero(W, axis=-1).max() <= 4


def test_tent_masses_window_spanning_grid_equal_dense(rng):
    grid = np.sort(rng.uniform(-1.0, 1.0, 41))
    W = _tent_rows(grid, rng.uniform(-2.0, 2.0, 50), 5.0)
    assert np.all(W > 0)


@pytest.mark.parametrize("std", [0.003, 0.3, 3.0])
def test_tent_masses_means_at_and_beyond_grid_ends_equal_dense(std):
    grid = np.linspace(-2.0, 2.0, 81)
    means = [-50.0, -2.0 - 14 * std, -2.0 - std, -2.0, -2.0 + 1e-12, -1.95,
             1.95, 2.0 - 1e-12, 2.0, 2.0 + std, 2.0 + 14 * std, 50.0]
    W = _tent_rows(grid, means, std)
    assert W[0, 0] == 1.0 and W[-1, -1] == 1.0


def test_tent_masses_above_mean_rounding_noise_equal_dense():
    # Past the mean, where ndtr rounds to 1, the dense form's masses are
    # rounding noise; at std/spacing 0.34 some of it passes the floor near
    # 11 stds, and a window cut right after 14 stds changes its last bits.
    model = mv_model(MeanVarianceParams(T=5))
    x = model.grids[0]
    mu, sc = model.kernel.landing_params(0, x, model.constraints[0].nodes(x)[:, 18])
    for m, s in zip(mu, sc):  # one row per call, so no wider row widens its window
        _tent_rows(model.grids[1], [m], s)


def test_tent_masses_mixed_widths_across_blocks_equal_dense(rng):
    grid = np.linspace(-6.0, 6.0, 301)
    mean = rng.uniform(-8.0, 8.0, (40, 60))
    std = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), (40, 60)))
    assert mean.size * grid.size > 10 * TENT_BLOCK
    W = _tent_rows(grid, mean, std).reshape(mean.size, -1)
    # Each row computed alone equals it in the batch, bit for bit, for windows
    # from a few nodes to the whole grid: a lone row's sum must run left to
    # right too (np.add.reduce sums a one-row block pairwise).
    widths = np.count_nonzero(W, axis=1)
    assert widths.min() <= 4 and widths.max() == grid.size
    for m, s, w in zip(mean.ravel(), std.ravel(), W):
        alone, _ = _landing_rows(grid, np.array([m]), np.array([s]), GaussianNoise())
        assert np.array_equal(alone[0], w)


def test_quadrature_rows_scattered_over_chunks_equal_the_banded_rows():
    # Dense quadrature rows are spread and scattered a chunk at a time, as
    # the banded rows are spread and cut; they were built in one shot.
    k = _density_gauss_kernel(_gauss_kernel(sigma=0.3))
    grid = np.linspace(-8.0, 8.0, 161)
    mu, sc = k.landing_params(0, np.linspace(-6.0, 6.0, 61)[:, None], np.linspace(-2.0, 2.0, 21))
    assert mu.size >= 3 * (BAND_CHUNK // grid.size)
    W, clamp = _landing_rows(grid, mu, sc, k.noise)
    B, clamp_b = _landing_rows(grid, mu, sc, k.noise, banded=True)
    assert W.shape == B.shape == mu.shape + grid.shape
    assert np.array_equal(W, np.asarray(B)) and np.array_equal(clamp, clamp_b)


def test_tent_masses_accuracy_against_mpmath():
    # Uniform and jittered grids, std/spacing 1e-3 to 600, means inside the
    # grid, near its top end and 3 stds beyond either end, against 40-digit
    # references.  The worst row error may not exceed that of the first-
    # moment formula the z-unit form replaced.
    pytest.importorskip("mpmath")
    uniform = np.linspace(-2.0, 2.0, 41)
    jittered = -2.0 + np.concatenate(
        ([0.0], np.cumsum(np.random.default_rng(0).uniform(0.05, 0.15, 40))))
    errors = []
    for grid in (uniform, jittered):
        for std in 0.1 * np.array([1e-3, 0.3, 3.0, 30.0, 600.0]):
            for mean in (0.37, 1.98, grid[0] - 3.0 * std, grid[-1] + 3.0 * std):
                exact = exact_tent_masses(grid, mean, std)
                W, _ = _landing_rows(grid, np.array(mean), np.array(std), GaussianNoise())
                errors.append((np.max(np.abs(W - exact)),
                               np.max(np.abs(moment_landing_rows(grid, mean, std) - exact))))
    ours, moment = np.array(errors).T
    assert ours.max() <= 1e-11
    assert ours.max() <= moment.max()


# ---------------------------------------------------------------------------
# policy_matrix / expectation / rows
# ---------------------------------------------------------------------------

def test_policy_matrix_at_node_equals_weights():
    k = _gauss_kernel()
    dk = discretize(k, _grids(2, -6, 6, 41), _constraints(2, -2, 2, 5))
    controls = dk.controls[0][:, 2].copy()
    Q = policy_matrix(dk, 0, controls)
    np.testing.assert_allclose(Q, dk.weights[0][:, 2], atol=1e-13)


@pytest.mark.parametrize("kind", [
    "exact", "quadrature", "chain_small", "lq", "nonlinear_lq", "mean_variance", "exp_utility"])
def test_node_rows_at_node_controls_reproduce_weights(kind, request):
    # deviation_report reads the grid probes' rows from dk.weights[t]
    # in place of node_rows, which is sound only if the two agree bit for bit.
    families = {"lq": lambda: lq_model(LQParams(), n_x=31, n_u=11),
                "nonlinear_lq": lambda: nonlinear_lq_variant(LQParams(), n_x=31, n_u=11),
                "mean_variance": lambda: mv_model(MeanVarianceParams(T=4), n_x=41, n_u=11),
                "exp_utility": lambda: exp_utility_model(n_x=31, n_u=11)}
    if kind == "chain_small":
        dk = request.getfixturevalue(kind)[1]
    elif kind in families:
        model = families[kind]()
        dk = discretize(model.kernel, model.grids, model.constraints)
        assert dk.build_method == "exact"
    else:
        k = _gauss_kernel(a=0.9, b=1.3, sigma=0.4)
        dk = discretize(k if kind == "exact" else _density_gauss_kernel(k),
                        _grids(3, -8, 8, 81), _constraints(3, -2, 2, 9))
        assert dk.build_method == kind
    for t, W in enumerate(dk.weights):
        n = dk.grids[t].size
        assert np.array_equal(dk.node_rows(t, np.arange(n), dk.controls[t]), W)


def test_chain_blend_is_linear(chain_small):
    model, dk, _ = chain_small
    U = dk.controls[0][0]
    mid = 0.5 * (U[0] + U[1])
    # dk.row on a chain blends the bracketing control nodes' rows
    np.testing.assert_allclose(
        dk.row(0, 0, mid), 0.5 * (dk.weights[0][0, 0] + dk.weights[0][0, 1]), atol=1e-14)


def test_additive_off_node_row_rediscretizes_exactly():
    # Off control nodes, additive kernels re-discretize at the exact u, so
    # the landing mean remains a*x + b*u (blending would bias it toward
    # the bracketing nodes' mixture).
    k = _gauss_kernel(a=1.0, b=1.0, sigma=0.5)
    grids = _grids(2, -8, 8, 321)
    dk = discretize(k, grids, _constraints(2, -2, 2, 5))
    i, u = 160, 0.37  # x = 0, off-node control
    row = dk.row(0, i, u)
    assert abs(row @ grids[1] - u) < 1e-9
    # E of the interpolant of x'^2 carries the uniform-grid carpet h^2/6
    h = 16.0 / 320.0
    var = row @ grids[1] ** 2 - (row @ grids[1]) ** 2
    assert abs(var - 0.25 - h * h / 6.0) < 1e-6


def test_expectation_normalization_and_affine():
    k = _gauss_kernel(a=1.1, b=0.7, sigma=0.8)
    grids = _grids(2, -12, 12, 401)
    dk = discretize(k, grids, _constraints(2, -2, 2, 9))
    i = 200  # x = 0
    assert dk.row(0, i, 0.5) @ np.ones(401) == pytest.approx(1.0, abs=1e-10)
    x = float(grids[0][i])
    for u in (-1.0, 0.3, 2.0):
        e = dk.row(0, i, u) @ grids[1]
        assert abs(e - (1.1 * x + 0.7 * u)) < 1e-8


def test_expectation_halfline_matches_normal_cdf():
    k = _gauss_kernel(a=1.0, b=1.0, sigma=1.0)
    grids = _grids(2, -10, 10, 4001)
    dk = discretize(k, grids, _constraints(2, -2, 2, 9))
    i = 2000
    thresh = 0.5025  # mid-cell: worst case for the step interpolant
    g = (grids[1] >= thresh).astype(float)
    e = dk.row(0, i, 1.0) @ g
    assert abs(e - (1.0 - norm.cdf(thresh - 1.0))) < 2e-3


def test_infeasible_control_rejected():
    k = _gauss_kernel()
    dk = discretize(k, _grids(2, -6, 6, 21), _constraints(2, -1, 1, 3))
    with pytest.raises(InfeasibleControlError):
        dk.row(0, 0, 5.0)
    with pytest.raises(InfeasibleControlError):
        policy_matrix(dk, 0, np.full(21, 5.0))


# ---------------------------------------------------------------------------
# tv_distance
# ---------------------------------------------------------------------------

def test_tv_zero_for_identical_controls():
    k = _gauss_kernel(a=0.0, b=1.0)
    assert tv_distance(k, 0, 0.0, 0.7, 0.7) <= 1e-10


def test_tv_matches_gaussian_shift_oracle():
    # Integral of |N(0,1) - N(d,1)| over z is 2 * (2*Phi(d/2) - 1).
    k = _gauss_kernel(a=0.0, b=1.0)
    last = 0.0
    for d in (2.0, 1.0, 0.5, 0.25, 0.125):
        tv = tv_distance(k, 0, 0.0, 0.0, d)
        oracle = 2.0 * (2.0 * norm.cdf(d / 2.0) - 1.0)
        assert abs(tv - oracle) < 1e-6
    # monotone decay toward 0 as the controls approach
    tvs = [tv_distance(k, 0, 0.0, 0.0, d) for d in (1.0, 0.5, 0.25, 0.125)]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))


def test_tv_scale_difference_against_dense_oracle():
    # sigma(x, u) = u: N(0,1) vs N(0,4), dense numeric reference.
    k = AdditiveNoise(drift=lambda t, x, u: np.zeros(np.broadcast(
        np.asarray(x), np.asarray(u)).shape),
        scale=lambda t, x, u: np.abs(np.asarray(u, dtype=float))
        + 0.0 * np.asarray(x),
        noise=GaussianNoise(), sigma_floor=0.5)
    z = np.linspace(-30, 30, 2_000_001)
    dense = np.trapezoid(np.abs(norm.pdf(z, 0, 1) - norm.pdf(z, 0, 2)), z)
    assert abs(tv_distance(k, 0, 0.0, 1.0, 2.0, panels=65536) - dense) < 1e-6


def test_tv_rejects_chain(chain_small):
    model, _, _ = chain_small
    with pytest.raises(KernelError):
        tv_distance(model.kernel, 0, 0.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# exact_expectation / setwise continuity
# ---------------------------------------------------------------------------

def test_exact_expectation_step_function():
    k = _gauss_kernel(a=1.0, b=1.0, sigma=1.0)
    V = StepFunction(breaks=[0.0], levels=[1.0, -1.0])
    # x' ~ N(0.3, 1): E[V] = P(x' < 0) - P(x' >= 0)
    e = exact_expectation(k, 0, 0.0, 0.3, V)
    assert abs(e - (2.0 * norm.cdf(-0.3) - 1.0)) < 1e-12


def test_exact_expectation_degenerate_point_mass():
    k = AdditiveNoise(drift=lambda t, x, u: np.asarray(u, dtype=float)
                      + 0.0 * np.asarray(x),
                      scale=lambda t, x, u: np.abs(np.asarray(u, dtype=float))
                      + 0.0 * np.asarray(x),
                      noise=GaussianNoise(), sigma_floor=0.0)
    V = PointIndicator(0.0)
    assert exact_expectation(k, 0, 0.0, 0.0, V) == 1.0
    assert exact_expectation(k, 0, 0.0, 0.5, V) == 0.0


def test_probe_step_functions_bounded_and_convergent():
    # Each draw from its own generator, over 200 seeds: every u_k of the
    # Gaussian kernel has a TV bound, so the bounds judge convergence.  The
    # worst gap alone falls slower than linearly or rises between halvings
    # on 36 of these draws, which the shrinkage rule called non-convergent.
    k = _gauss_kernel(a=1.0, b=1.0, sigma=1.0)
    M = 2.0
    u_seq = 0.5 + np.array([0.8, 0.4, 0.2, 0.1, 0.05, 0.025])
    for seed in range(200):
        rng = np.random.default_rng(seed)
        V = StepFunction(breaks=np.sort(rng.uniform(-2, 2, 3)),
                         levels=rng.uniform(-M, M, 4))
        report = setwise_continuity_probe(k, 0, 0.0, 0.5, u_seq, [V], M)
        assert not report.bound_violated, seed
        assert report.converged and report.rule == "tv_bound", seed
        assert np.all(report.gaps.max(axis=1) <= report.tv_bounds + 1e-6), seed


def test_probe_counterexample_flags_discontinuity():
    # x' = u * W with V = 1_{0}: E = 1 at u = 0 but 0 for every u != 0.
    k = AdditiveNoise(drift=lambda t, x, u: np.zeros(np.broadcast(
        np.asarray(x), np.asarray(u)).shape),
        scale=lambda t, x, u: np.abs(np.asarray(u, dtype=float))
        + 0.0 * np.asarray(x),
        noise=GaussianNoise(), sigma_floor=0.0)
    V = PointIndicator(0.0)
    u_seq = 1.0 / np.arange(1, 9)
    report = setwise_continuity_probe(k, 0, 0.0, 0.0, u_seq, [V], 1.0)
    assert report.limit_values[0] == 1.0
    assert np.all(report.gaps == 1.0)
    assert not report.converged


def test_probe_rule_names_the_judge():
    # With a TV bound at every u_k the bounds judge; the degenerate scale of
    # x' = u W at u = 0 leaves none, so the gaps' own shrinkage judges.
    V = StepFunction(breaks=[0.0], levels=[0.0, 1.0])
    gauss = setwise_continuity_probe(_gauss_kernel(), 0, 0.0, 0.5, [0.9, 0.7, 0.6], [V], 1.0)
    degenerate = AdditiveNoise(drift=lambda t, x, u: 0.0 * np.asarray(x),
                               scale=lambda t, x, u: np.abs(np.asarray(u, dtype=float)),
                               noise=GaussianNoise(), sigma_floor=0.0)
    shrink = setwise_continuity_probe(degenerate, 0, 0.0, 0.0, [0.5, 0.25], [V], 1.0)
    assert (gauss.rule, shrink.rule) == ("tv_bound", "shrinkage")
    assert np.isnan(shrink.tv_bounds).all()


def test_probe_rejects_unbounded_family():
    k = _gauss_kernel()
    V = StepFunction(breaks=[0.0], levels=[0.0, 10.0])
    with pytest.raises(ValueError):
        setwise_continuity_probe(k, 0, 0.0, 0.5, [0.6], [V], M=1.0)


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

def test_kernel_cache_roundtrip(tmp_path):
    k = _gauss_kernel()
    dk = discretize(k, _grids(3, -6, 6, 31), _constraints(3, -2, 2, 7))
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    back = load_kernel_cache(path, spec=k)
    assert back.horizon == dk.horizon
    for t in range(dk.horizon - 1):
        np.testing.assert_array_equal(back.weights[t], dk.weights[t])
        np.testing.assert_array_equal(back.controls[t], dk.controls[t])
        np.testing.assert_array_equal(back.grids[t], dk.grids[t])
        np.testing.assert_array_equal(back.clamped[t], dk.clamped[t])
    np.testing.assert_array_equal(back.grids[-1], dk.grids[-1])


def test_dense_weights_are_floored_on_the_way_in():
    # A subnormal weight given dense was stored as it was, widening its
    # row's band, and the cache loader had to floor and cut it again.
    dk = discretize(_gauss_kernel(sigma=0.3), _grids(2, -6, 6, 31), _constraints(2, -2, 2, 7))
    W = dk.weights[0]
    tiny = W.copy()
    tiny[15, 3, 0] = 1e-310  # 20 sigma below the landing mean
    given = DiscretizedKernel([tiny], dk.controls, dk.grids, dk.clamped)
    assert tiny[15, 3, 0] == 1e-310  # the caller's array is left as it is
    assert given.weights[0][15, 3, 0] == 0.0
    assert _same_kernel(given, DiscretizedKernel([W], dk.controls, dk.grids, dk.clamped))


def test_kernel_cache_reload_rebuilds_rows_like_the_saved_kernel(tmp_path):
    model = exp_utility_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    u = dk.controls[0][60, 50]
    back = load_kernel_cache(path, spec=model.kernel)
    assert back.build_method == "exact"
    np.testing.assert_allclose(back.row(0, 60, u), dk.weights[0][60, 50], rtol=0, atol=1e-12)
    dens = _density_gauss_kernel()
    quad = discretize(dens, _grids(2, -6, 6, 31), _constraints(2, -2, 2, 7))
    save_kernel_cache(quad, path)
    back = load_kernel_cache(path, spec=dens)
    assert back.build_method == "quadrature"
    data = path.read_bytes()
    path.write_bytes(data[:12] + struct.pack("<I", 7) + data[16:])
    with pytest.raises(KernelError, match="unknown build method 7"):
        load_kernel_cache(path)


def test_kernel_cache_load_holds_each_tensor_once(tmp_path):
    # Tensors are read in place, so beyond what the loaded kernel keeps, the
    # load's traced peak is a fraction of the largest weight tensor (reading
    # into bytes and then copying held each tensor twice: 1.1x here).
    import tracemalloc
    model = exp_utility_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    largest = max(W.nbytes for W in dk.weights)
    del dk
    tracemalloc.start()
    try:
        back = load_kernel_cache(path, spec=model.kernel)  # noqa: F841 (kept while measured)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 0.25 * largest


def test_kernel_cache_loaded_with_another_spec_raises(tmp_path):
    # Loaded with the default LQ kernel, an exp_utility cache gave rows at
    # its own node controls 0.19 away from its weights.
    model = exp_utility_model()
    dk = discretize(model.kernel, model.grids, model.constraints)
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    with pytest.raises(KernelError, match="was not built from this kernel: rows at t=0 differ by"
                       ) as info:
        load_kernel_cache(path, spec=lq_model().kernel)
    assert str(path) in str(info.value)
    load_kernel_cache(path)  # without a spec there is nothing to compare


def test_chain_weight_below_floor_is_zeroed_and_survives_cache(tmp_path):
    P = np.array([[[1.0, 1e-31], [0.5, 0.5]], [[0.2, 0.8], [0.0, 1.0]]])
    chain = DiscreteChain(matrices=[P], control_values=[np.array([-1.0, 1.0])])
    grids = [np.array([0.0, 1.0])] * 2
    dk = discretize(chain, grids, None)
    assert dk.weights[0][0, 0, 1] == 0.0
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    back = load_kernel_cache(path, spec=chain)
    assert np.array_equal(back.weights[0], dk.weights[0])


def test_chain_of_the_wrong_length_raises_kernel_error():
    P = np.full((2, 2, 2), 0.5)
    with pytest.raises(KernelError, match="chain has 2 matrices but 1 control_values entries"):
        DiscreteChain(matrices=[P, P], control_values=[np.array([-1.0, 1.0])])
    one = DiscreteChain(matrices=[P], control_values=[np.array([-1.0, 1.0])])
    with pytest.raises(KernelError, match="chain has 1 matrices for 2 times"):
        discretize(one, [np.array([0.0, 1.0])] * 3, None)


@pytest.mark.parametrize("message", ["non-finite transition weight at t=0",
                                     "non-finite control value at t=0"])
def test_chain_rejects_non_finite_entries(message):
    # NaN passed the sign, row-sum and ordering tests; a NaN weight outside
    # its row's band was then dropped, leaving a row that summed to 1.
    P = np.zeros((2, 2, 40))
    P[..., :2] = 0.5
    u = np.array([-1.0, 1.0])
    (P[0, 0] if "weight" in message else u)[-1] = np.nan
    with pytest.raises(KernelError, match=message):
        DiscreteChain(matrices=[P], control_values=[u])


def test_bands_are_cut_in_two_places_only():
    # _cut is the band rule: _banded cuts every stored band with it, and
    # _dense_dot the dense rows it contracts.  A third caller would be a
    # second routine that cuts bands, whose bands could drift from the stored ones.
    import ast
    from pathlib import Path
    import markeq
    callers = set()
    for path in Path(markeq.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_cut"
                   for n in ast.walk(top)):
                callers.add((path.name, top.name))
    assert callers == {("kernels.py", "_banded"), ("kernels.py", "_dense_dot")}


def test_tent_masses_have_one_dispatcher_and_windows_one_dense_sink():
    # Every landing row comes through _landing_rows, which picks the rule;
    # node_rows_and_slope called _gaussian_tent_masses past it.  Windows end
    # in _banded (bands) or _scatter (dense rows), the one writer of windows.
    import ast
    from pathlib import Path
    import markeq

    def calls(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    tent, writes = set(), set()
    for path in Path(markeq.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                if calls(n, "_gaussian_tent_masses"):
                    tent.add((path.name, top.name))
                if isinstance(n, (ast.Assign, ast.AugAssign)) and any(
                        isinstance(s, ast.Subscript) and calls(s.value, "_sliding")
                        for t in getattr(n, "targets", [getattr(n, "target", None)])
                        for s in ast.walk(t)):
                    writes.add((path.name, top.name))
    assert tent == {("kernels.py", "_landing_rows")}
    assert writes == {("kernels.py", "_scatter")}


def test_kernel_cache_rejects_nan_weight(tmp_path):
    model = lq_model(LQParams(), n_x=11, n_u=5)
    dk = discretize(model.kernel, model.grids, model.constraints)
    W = list(dk.weights)
    W[1][4, 2, 5] = np.nan
    dk = DiscretizedKernel(W, dk.controls, dk.grids, dk.clamped)  # weights read only
    with pytest.raises(KernelError, match="t=1 are not stochastic"):
        dk.check_rows()
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    with pytest.raises(KernelError, match=r"non-finite weights of band group \d+ at t=1") as info:
        load_kernel_cache(path, spec=model.kernel)
    assert str(path) in str(info.value)


def test_kernel_cache_rejects_non_stochastic_row(tmp_path):
    model = lq_model(LQParams(), n_x=11, n_u=5)
    dk = discretize(model.kernel, model.grids, model.constraints)
    W = list(dk.weights)
    W[0][3, 1] *= 0.5
    dk = DiscretizedKernel(W, dk.controls, dk.grids, dk.clamped)  # weights read only
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    with pytest.raises(KernelError, match="t=0 are not stochastic") as info:
        load_kernel_cache(path, spec=model.kernel)
    assert f"kernel cache {path}" in str(info.value)


def test_kernel_cache_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTMYFMT" + b"\x00" * 64)
    with pytest.raises(KernelError, match="not a kernel cache file") as info:
        load_kernel_cache(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("version", [1, 2])
def test_kernel_cache_rejects_legacy_versions(tmp_path, version):
    # Versions 1 and 2 held dense rows; only version 3 is written, and read.
    path = tmp_path / "old.bin"
    path.write_bytes(b"MKEQDK0%d" % version + bytes(64))
    with pytest.raises(KernelError, match=f"version {version} is no longer read; save the "
                       "kernel again") as info:
        load_kernel_cache(path)
    assert str(path) in str(info.value)


# Offsets into a saved T=3, 31x7 cache: the header takes 20 bytes, then per t
# a 12-byte shape header, the state grid, controls and clamp, the group count
# and each group's 8-byte header, rows, starts and bands: at t=0 one group of
# 217 rows of width 31.
@pytest.mark.parametrize("keep, section", [
    (10, "horizon"),
    (20 + 12 + 8 * 31 + 2 * 8 * 31 * 7 + 4 + 8 + 2 * 8 * 217 + 100,
     "weights of band group 0"),
    (-3, "terminal state grid"),
])
def test_kernel_cache_truncated_names_file_and_section(tmp_path, keep, section):
    dk = discretize(_gauss_kernel(), _grids(3, -6, 6, 31), _constraints(3, -2, 2, 7))
    path = tmp_path / "kernel.bin"
    save_kernel_cache(dk, path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(KernelError, match="truncated kernel cache") as info:
        load_kernel_cache(path)
    assert str(path) in str(info.value)
    assert section in str(info.value)


def _lq_cache(tmp_path):
    """A saved LQ T=4, 21x11 kernel cache (version 3): its path and bytes."""
    model = lq_model(LQParams(T=4), n_x=21, n_u=11)
    path = tmp_path / "kernel.bin"
    save_kernel_cache(discretize(model.kernel, model.grids, model.constraints), path)
    return path, path.read_bytes()


def test_kernel_cache_rejects_a_slice_larger_than_the_file(tmp_path):
    # A header of (2^30, 2^10, 2^10) asked for an 8 GiB state grid: MemoryError.
    path, data = _lq_cache(tmp_path)
    path.write_bytes(data[:20] + struct.pack("<III", 2 ** 30, 2 ** 10, 2 ** 10) + data[32:])
    with pytest.raises(KernelError, match="state grid at t=0 needs 8589934592 bytes"):
        load_kernel_cache(path)


@pytest.mark.parametrize("shape", [(0, 3, 0), (3, 0, 3)])
def test_kernel_cache_rejects_a_zero_dimension(tmp_path, shape):
    # A zero dimension raised TypeError from memoryview.cast.
    path, data = _lq_cache(tmp_path)
    path.write_bytes(data[:20] + struct.pack("<III", *shape) + data[32:])
    with pytest.raises(KernelError, match=r"shape header at t=0 has a zero dimension"):
        load_kernel_cache(path)


def test_kernel_cache_rejects_a_horizon_shorter_than_its_slices(tmp_path):
    # With horizon 2 in a T=4 cache, t=1's header and grid loaded as the terminal grid.
    path, data = _lq_cache(tmp_path)
    path.write_bytes(data[:8] + struct.pack("<I", 2) + data[12:])
    with pytest.raises(KernelError, match="bytes follow the terminal state grid"):
        load_kernel_cache(path)


def test_kernel_cache_rejects_bytes_after_the_terminal_grid(tmp_path):
    path, data = _lq_cache(tmp_path)
    path.write_bytes(data + bytes(8))
    with pytest.raises(KernelError, match="8 bytes follow the terminal state grid"):
        load_kernel_cache(path)


def _same_kernel(back, dk):
    """True when ``back`` holds ``dk``'s band groups, controls, grids and clamp, array-equal."""
    return (back.build_method == dk.build_method and back.horizon == dk.horizon
            and all(B.shape == C.shape and len(B.groups) == len(C.groups)
                    and all(np.array_equal(x, y) for g, h in zip(B.groups, C.groups)
                            for x, y in zip(g, h))
                    for B, C in zip(back._bands, dk._bands))
            and all(len(getattr(back, f)) == len(getattr(dk, f))
                    and all(np.array_equal(x, y) for x, y in zip(getattr(back, f), getattr(dk, f)))
                    for f in ("controls", "grids", "clamped")))


@pytest.mark.parametrize("build", [
    exp_utility_model, lambda: _density_lq(), lambda: mv_chain_model(n_x=31, n_u=21)],
    ids=["exp_utility", "density_lq", "mv_chain_31x21"])
def test_kernel_cache_of_every_version_loads_the_discretized_kernel(tmp_path, build):
    # Version 3, the one version read, holds the bands as stored.
    model = build()
    dk = discretize(model.kernel, model.grids, model.constraints)
    v3 = tmp_path / "v3.bin"
    save_kernel_cache(dk, v3)
    assert _same_kernel(load_kernel_cache(v3, spec=model.kernel), dk)
    # Beyond what the kernel stores: the header, and per t the shape, the group count
    # and each group's (W, r).
    groups = sum(len(B.groups) for B in dk._bands)
    assert v3.stat().st_size == dk.nbytes + 20 + 16 * (dk.horizon - 1) + 8 * groups


def test_kernel_cache_rejects_a_weight_below_the_floor(tmp_path):
    # No saved band holds a nonzero weight below the floor, so a file that
    # does was not written by save_kernel_cache: loading it names the group.
    path, data = _lq_cache(tmp_path)
    data = bytearray(data)
    (a, W, r), _ = _v3_groups(data, 21, 11)
    at = a + 8 + 16 * r + 8 * (5 * W + 3)  # weight 3 of band 5 of group 0
    assert struct.unpack_from("<d", data, at)[0] != 0.0
    struct.pack_into("<d", data, at, 1e-310)
    path.write_bytes(data)
    with pytest.raises(KernelError, match=r"weights of band group 0 at t=0 hold 1\.000e-310, "
                       "nonzero and below WEIGHT_FLOOR") as info:
        load_kernel_cache(path)
    assert str(path) in str(info.value)


def _v3_groups(data, n, M):
    """(offset, W, r) of each band group of slice t=0 in version-3 cache bytes."""
    at = 20 + 12 + 8 * n + 16 * n * M
    (G,) = struct.unpack_from("<I", data, at)
    out, at = [], at + 4
    for _ in range(G):
        W, r = struct.unpack_from("<II", data, at)
        out.append((at, W, r))
        at += 8 + 16 * r + 8 * r * W
    return out


def _corrupt(data, kind):
    """Version-3 bytes of ``_lq_cache`` (n = 21, M = 11, two groups at t=0) broken one way."""
    n, M = 21, 11
    (a, W, r), (b, W1, r1) = _v3_groups(data, n, M)
    rows0, rows1, starts0 = a + 8, b + 8, a + 8 + 8 * r
    if kind == "zero-width":
        struct.pack_into("<I", data, a, 0)
    elif kind == "too-wide":
        struct.pack_into("<I", data, a, n + 1)
    elif kind == "no-rows":
        struct.pack_into("<I", data, a + 4, 0)
    elif kind == "unordered-rows":
        struct.pack_into("<qq", data, rows0, 1, 0)
    elif kind == "row-past-the-end":
        struct.pack_into("<q", data, rows1 + 8 * (r1 - 1), n * M)
    elif kind == "start-past-the-end":
        struct.pack_into("<q", data, starts0, n - W + 1)
    elif kind == "negative-start":
        struct.pack_into("<q", data, starts0, -1)
    elif kind == "row-in-two-groups":  # group 1's first row, 39, becomes group 0's row 38
        struct.pack_into("<q", data, rows1, 38)
    elif kind == "row-in-no-group":  # group 1 without its first row
        end = b + 8 + 16 * r1 + 8 * r1 * W1
        old = bytes(data)
        rows = np.frombuffer(old, "<i8", r1, rows1)
        starts = np.frombuffer(old, "<i8", r1, rows1 + 8 * r1)
        band = np.frombuffer(old, "<f8", r1 * W1, rows1 + 16 * r1)
        data[b:end] = (struct.pack("<II", W1, r1 - 1) + rows[1:].tobytes()
                       + starts[1:].tobytes() + band[W1:].tobytes())
    return data


_MALFORMED = [
    ("zero-width", r"band group 0 at t=0 has 216 rows of width 0"),
    ("too-wide", r"band group 0 at t=0 has 216 rows of width 22; rows land on 21 nodes"),
    ("no-rows", r"band group 0 at t=0 has 0 rows of width 16"),
    ("unordered-rows", r"rows of band group 0 at t=0 are not increasing indices below 231"),
    ("row-past-the-end", r"rows of band group 1 at t=0 are not increasing indices below 231"),
    ("start-past-the-end", r"starts of band group 0 at t=0 leave \[0, 5\]"),
    ("negative-start", r"starts of band group 0 at t=0 leave \[0, 5\]"),
    ("row-in-two-groups", r"band group 1 at t=0 holds row 38, which an earlier group holds"),
    ("row-in-no-group", r"the 2 band groups at t=0 hold no row 39")]


@pytest.mark.parametrize("kind, message", _MALFORMED, ids=[k for k, _ in _MALFORMED])
def test_kernel_cache_rejects_a_malformed_band_group(tmp_path, kind, message):
    path, data = _lq_cache(tmp_path)
    path.write_bytes(_corrupt(bytearray(data), kind))
    with pytest.raises(KernelError, match=message) as info:
        load_kernel_cache(path)
    assert f"kernel cache {path}" in str(info.value)


@pytest.mark.parametrize("build", [
    lambda: mv_model(MeanVarianceParams(T=5), n_x=201, n_u=41), exp_utility_model],
    ids=["mv_t5", "exp_utility"])
def test_banded_kernel_stores_under_two_fifths_of_the_dense_bytes(build):
    # Dense slices held 53.0 MB (mv_t5) and 35.5 MB (exp_utility), about 80 % zeros.
    model = build()
    dk = discretize(model.kernel, model.grids, model.constraints)
    dense = sum(8 * U.size * g.size for U, g in zip(dk.controls, model.grids[1:]))
    assert dk.nbytes <= 0.4 * dense, (dk.nbytes, dense)


def test_node_rows_match_row_per_node():
    k = _gauss_kernel(a=0.9, b=1.3, sigma=0.7)
    dk = discretize(k, _grids(2, -8, 8, 81), _constraints(2, -2, 2, 9))
    nodes = np.array([3, 40, 40, 77])
    U = np.array([[-2.0, 0.1], [0.37, 2.0], [-1.5, 1.25], [1.9, -0.3]])
    rows = dk.node_rows(0, nodes, U)
    assert rows.shape == (4, 2, 81)
    for r, i in enumerate(nodes):
        for p in range(2):
            np.testing.assert_array_equal(rows[r, p], dk.row(0, i, U[r, p]))
    np.testing.assert_array_equal(dk.node_rows(0, nodes, U[:, 0]), rows[:, 0])


# ---------------------------------------------------------------------------
# node_slopes
# ---------------------------------------------------------------------------

def _dotted(dk, t, nodes, g):
    """u -> node_rows(t, nodes, u) @ g, row by row."""
    return lambda U: np.einsum("...n,...n->...", dk.node_rows(t, nodes, U), g)


def _five_point(F, U, h):
    """Fourth-order central difference of F at U with step h."""
    return (F(U - 2.0 * h) - 8.0 * F(U - h) + 8.0 * F(U + h) - F(U + 2.0 * h)) / (12.0 * h)


def _assert_slopes(dk, t, nodes, U, g, diff, step, diff_err):
    """node_slopes within 1e-7 of ``diff`` at ``step``, whose own error is under ``diff_err``.

    A difference's own error is taken as its change from ``step`` to 2 ``step``;
    errors are relative to 1 + |slope|.
    """
    F = _dotted(dk, t, nodes, g)
    fd, fd2 = diff(F, U, step), diff(F, U, 2.0 * step)
    scale = 1.0 + np.abs(fd)
    assert np.max(np.abs(fd2 - fd) / scale) < diff_err
    assert np.max(np.abs(dk.node_slopes(t, nodes, U, g) - fd) / scale) < 1e-7


@pytest.mark.parametrize("build", [
    lambda: mv_model(MeanVarianceParams(T=3), n_x=81, n_u=21),
    lambda: lq_model(LQParams(a=0.5), n_x=61, n_u=41),
    nonlinear_lq_variant], ids=["mean_variance", "lq_a05", "nonlinear_lq"])
def test_node_slopes_match_differences_of_tent_rows(build):
    # Tent rows are smooth in u, so 5-point differences at h = 1e-4 err by
    # h^4 terms and rounding, under 1e-10 here (the slopes agree as well).  The first and last state
    # nodes' 12-std windows are clipped at the ends of the next grid.
    model = build()
    dk = discretize(model.kernel, model.grids, model.constraints)
    rng = np.random.default_rng(7)
    for t in range(model.T - 1):
        n, grid = model.grids[t].size, model.grids[t + 1]
        nodes = np.r_[0, rng.choice(np.arange(1, n - 1), 6, replace=False), n - 1]
        lo, hi = dk.controls[t][0, [0, -1]]
        U = rng.uniform(lo + 0.05 * (hi - lo), hi - 1e-3, (nodes.size, 3))
        for g in (grid ** 2, np.maximum(grid, 0.0), rng.normal(size=(nodes.size, 1, grid.size))):
            _assert_slopes(dk, t, nodes, U, g, _five_point, 1e-4, 2e-10)


def _central(F, U, h):
    return (F(U + h) - F(U - h)) / (2.0 * h)


def test_node_slopes_match_differences_of_quadrature_rows():
    # Quadrature rows move each landing point along a grid cell, and kink
    # where one crosses a node; no node lies within 2h = 2e-6 of a landing
    # point here, so central differences err by rounding and h^2 terms,
    # under 1e-9.  Drift and scale both vary with u.
    k = AdditiveNoise(drift=lambda t, x, u: 0.8 * x + np.sin(u),
                      scale=lambda t, x, u: 0.5 + 0.3 * u * u,
                      noise=DensityNoise(density=norm.pdf, radius=9.0), sigma_floor=0.4)
    grids = _grids(2, -8, 8, 161)
    dk = discretize(k, grids, _constraints(2, -1, 1, 9))
    assert dk.build_method == "quadrature"
    rng = np.random.default_rng(5)
    nodes = np.r_[0, rng.choice(np.arange(1, 160), 8, replace=False), 160]
    U = rng.uniform(-0.99, 0.99, (nodes.size, 2))
    for g in (grids[1] ** 2, np.cos(grids[1]), rng.normal(size=(nodes.size, 1, 161))):
        _assert_slopes(dk, 0, nodes, U, g, _central, 1e-6, 2e-9)


def test_node_slopes_of_blended_rows_are_their_segments_slopes(tmp_path):
    # Blended rows are linear in u between control nodes, so central
    # differences at h = 1e-3 inside a segment err by rounding only, under
    # 1e-10.  A
    # control at a node takes the slope of the segment to its left.
    chain = mv_chain_model(MeanVarianceParams(T=3), n_x=21, n_u=11)
    lq = lq_model(LQParams(), n_x=31, n_u=11)
    save_kernel_cache(discretize(lq.kernel, lq.grids, lq.constraints), tmp_path / "k.bin")
    for model, dk in ((chain, discretize(chain.kernel, chain.grids, chain.constraints)),
                      (lq, load_kernel_cache(tmp_path / "k.bin"))):
        assert dk.spec is None or dk.spec is chain.kernel  # rows blend between nodes
        Uk, W, n, g = dk.controls[0], dk.weights[0], model.grids[0].size, model.grids[1] ** 2
        nodes = np.arange(n)
        U = Uk[:, 2:4] + np.array([0.3, 0.8]) * (Uk[:, 3:5] - Uk[:, 2:4])
        _assert_slopes(dk, 0, nodes, U, g, _central, 1e-3, 1e-10)
        left = (W[:, 4] - W[:, 3]) @ g / (Uk[:, 4] - Uk[:, 3])
        np.testing.assert_allclose(dk.node_slopes(0, nodes, Uk[:, 4], g), left, rtol=1e-14)


def _density_lq():
    base = lq_model(LQParams(), n_x=61, n_u=41)
    k = base.kernel
    kernel = AdditiveNoise(drift=k.drift, scale=k.scale, sigma_floor=k.sigma_floor,
                           noise=DensityNoise(density=norm.pdf, radius=9.0))
    return Model(T=base.T, grids=base.grids, constraints=base.constraints, kernel=kernel,
                 costs=base.costs)


def test_gaussian_row_slope_does_not_depend_on_its_batch():
    # einsum summed a one-row tent block in another order than a block of
    # two or more rows: 151 of these 201 slopes, built one node at a time,
    # differed from the batch's by up to 1.8e-14 relative.
    model = mv_model(MeanVarianceParams(T=5), n_x=201, n_u=41)
    dk = discretize(model.kernel, model.grids, model.constraints)
    Uk, g, nodes = dk.controls[0], np.sin(model.grids[1]), np.arange(model.grids[0].size)
    U = Uk[:, 0] + np.random.default_rng(2).uniform(0.0, 1.0, nodes.size) * (Uk[:, -1] - Uk[:, 0])
    batch = dk.node_slopes(0, nodes, U, g)
    alone = [dk.node_slopes(0, [i], U[i:i + 1], g)[0] for i in nodes]
    assert np.array_equal(alone, batch)


@pytest.mark.parametrize("build", [
    lambda: mv_model(MeanVarianceParams(T=5), n_x=201, n_u=41),
    lambda: build_model({"family": "exp_utility"}),
    lambda: build_model({"family": "nonlinear_lq"}),
    _density_lq,
    lambda: mv_chain_model(n_x=31, n_u=21)],
    ids=["mv_t5", "exp_utility", "nonlinear_lq", "density_lq", "mv_chain_31x21"])
def test_node_rows_and_slope_equal_rows_and_reference_slopes(build):
    # One evaluator gives a batch's rows and their slope.  Its rows are
    # node_rows' bit for bit; the slope of Gaussian rows equals a second tent
    # pass's (the reference), bit for bit, at off-grid controls and node controls.
    model = build()
    dk = discretize(model.kernel, model.grids, model.constraints)
    rng = np.random.default_rng(11)
    for t in range(model.T - 1):
        Uk, grid = dk.controls[t], model.grids[t + 1]
        nodes = np.arange(model.grids[t].size)
        U = Uk[:, :1] + rng.uniform(0.0, 1.0, (nodes.size, 3)) * (Uk[:, -1:] - Uk[:, :1])
        U[:, 0] = Uk[:, Uk.shape[1] // 2]
        g = rng.normal(size=(nodes.size, 1, grid.size))
        for sel, V in ((nodes, U), (nodes[::7], U[::7, 1])):
            rows, slope = dk.node_rows_and_slope(t, sel, V)
            np.testing.assert_array_equal(rows, dk.node_rows(t, sel, V))
            gs = g[sel] if V.ndim == 2 else g[sel, 0]
            ref = (gaussian_node_slopes(dk, t, sel, V, gs) if dk.build_method == "exact"
                   else dk.node_slopes(t, sel, V, gs))
            np.testing.assert_array_equal(slope(gs), ref)
            assert slope(gs).shape == V.shape


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.2, 3.0), b=st.floats(-2.0, 2.0),
       u=st.floats(-1.0, 1.0))
def test_row_block_rows_are_stochastic(sigma, b, u):
    k = _gauss_kernel(a=1.0, b=b, sigma=sigma)
    dk = discretize(k, _grids(2, -12, 12, 41), _constraints(2, -1, 1, 5))
    rows = dk.row_block(0, np.full((41, 1), u))
    assert np.all(rows >= 0)
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
