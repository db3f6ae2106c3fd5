"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Verdict lines are also collected in conftest.ACCEPTANCE_LINES and echoed
after the test summary, so they survive pytest's output capture.
"""

import sys
import time

import numpy as np
import pytest

from markeq import (ExpUtilityParams, LQParams, MeanVarianceParams, Policy,
                    SolveOptions, StepFunction, PointIndicator, build_aux,
                    build_model, deviation_report, discretize,
                    exp_utility_model, levelset_probe, lq_model,
                    mv_chain_model, mv_closed_form, mv_model,
                    nonlinear_lq_variant, objective_L, setwise_continuity_probe,
                    solve, solve_naive, solve_precommitment,
                    value_identity_check, verify_equilibrium)
from markeq.kernels import AdditiveNoise
from markeq.noise import GaussianNoise

from _oracles import brute_force_equilibrium, chain_config
from conftest import ACCEPTANCE_LINES


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} [{name}]: {tag}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def default_instances():
    """Solved default instances of every shipped family."""
    out = {}
    specs = {
        "lq": lq_model(LQParams()),
        "nonlinear_lq": nonlinear_lq_variant(LQParams()),
        "mean_variance": mv_model(MeanVarianceParams()),
        "mean_variance_chain": mv_chain_model(MeanVarianceParams()),
        "exp_utility": exp_utility_model(ExpUtilityParams()),
    }
    for name, model in specs.items():
        t0 = time.perf_counter()
        dk = discretize(model.kernel, model.grids, model.constraints)
        solution = solve(model, dk)
        out[name] = (model, dk, solution, time.perf_counter() - t0)
    return out


def test_criterion_1_brute_force_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_gap = 0.0
    mismatches = 0
    for trial in range(20):
        config = chain_config(rng, T=int(rng.integers(2, 5)),
                              n_states=int(rng.integers(2, 4)),
                              n_controls=int(rng.integers(2, 4)),
                              mixer=["zero", "square", "neg_square"][trial % 3])
        model = build_model(config)
        dk = discretize(model.kernel, model.grids, model.constraints)
        solution = solve(model, dk)
        _, jidx = brute_force_equilibrium(model, dk)
        for t in range(model.T - 1):
            want = dk.controls[t][np.arange(model.grids[t].size), jidx[t]]
            if not np.array_equal(solution.policy.controls[t], want):
                mismatches += 1
        report = deviation_report(model, dk, solution.policy, tol=1e-9)
        worst_gap = max(worst_gap, report.worst_gap)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst_gap <= 1e-9 and elapsed < 10.0
    _report(1, "brute-force equivalence on 20 random chains", ok,
            f"mismatches={mismatches}, worst_gap={worst_gap:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_mean_variance_closed_form():
    p = MeanVarianceParams(T=5)
    t0 = time.perf_counter()
    model = mv_model(p, n_x=201, n_u=401)
    dk = discretize(model.kernel, model.grids, model.constraints)
    u_tol = 1e-9
    solution = solve(model, dk, SolveOptions(u_tol=u_tol))
    cf = mv_closed_form(p)
    tol = max(u_tol, 1e-6)
    const_ok, match_ok, coef_err = True, True, 0.0
    for t in range(p.T - 1):
        u = solution.policy.controls[t]
        if np.ptp(u) > 1e-6 * (1.0 + abs(cf.controls[t])):
            const_ok = False
        if np.max(np.abs(u - cf.controls[t])) > tol:
            match_ok = False
        # assembled objective: u^2 coefficient by exact second difference
        aux = build_aux(model, dk, solution.policy, t)
        e = p.T - 2 - t
        want = p.R ** (2 * e) * p.sigma2
        for i in range(0, model.grids[t].size, 25):
            us = float(u[i])
            d = 1.0
            second = (objective_L(model, dk, aux, t, i, us + d)
                      - 2.0 * objective_L(model, dk, aux, t, i, us)
                      + objective_L(model, dk, aux, t, i, us - d))
            coef_err = max(coef_err, abs(second / (2.0 * d * d) - want))
    elapsed = time.perf_counter() - t0
    ok = const_ok and match_ok and coef_err <= 1e-8 and elapsed < 60.0
    _report(2, "mean-variance closed form (T=5, 201x401)", ok,
            f"state-constant={const_ok}, match={match_ok}, "
            f"coef_err={coef_err:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_certification_defaults(default_instances):
    t0 = time.perf_counter()
    gaps = {}
    for name, (model, dk, solution, solve_s) in default_instances.items():
        tol = 1e-9 if name == "mean_variance_chain" else 1e-6
        report = verify_equilibrium(model, dk, solution, tol=tol)
        gaps[name] = report.worst_gap
    elapsed = (time.perf_counter() - t0
               + sum(v[3] for v in default_instances.values()))
    ok = (all(gaps[n] <= 1e-6 for n in ("lq", "nonlinear_lq",
                                        "mean_variance", "exp_utility"))
          and gaps["mean_variance_chain"] <= 1e-9 and elapsed < 300.0)
    worst = max(gaps, key=gaps.get)
    _report(3, "certification of default instances", ok,
            f"worst={worst}:{gaps[worst]:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_value_identity(default_instances):
    worst_chain, worst_quad = 0.0, 0.0
    for name, (model, dk, solution, _) in default_instances.items():
        for t in range(model.T - 2):
            resid = value_identity_check(model, dk, solution, t)
            if name == "mean_variance_chain":
                worst_chain = max(worst_chain, resid)
            else:
                worst_quad = max(worst_quad, resid)
    ok = worst_chain <= 1e-10 and worst_quad <= 1e-8
    _report(4, "value identity on all shipped instances", ok,
            f"chain={worst_chain:.3e}, quadrature={worst_quad:.3e}")
    assert ok


def test_criterion_5_time_inconsistency():
    # a = 1 is degenerate (every baseline is identically zero), so the
    # demonstration instance uses a = 0.5
    model = lq_model(LQParams(T=3, a=0.5), n_x=121, n_u=81)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    i0 = model.grids[0].size // 2 + 20
    pre, _ = solve_precommitment(model, dk, 0, i0)
    naive = solve_naive(model, dk)

    def differ(pa, pb):
        for t in range(model.T - 1):
            step = float(np.diff(dk.controls[t][0]).max())
            if np.max(np.abs(pa.controls[t] - pb.controls[t])) > step:
                return True
        return False

    pairwise = (differ(solution.policy, pre) and differ(solution.policy, naive)
                and differ(pre, naive))
    naive_report = deviation_report(model, dk, naive, tol=1e-9)
    naive_fails = (not naive_report.certified) and naive_report.worst_gap > 0

    # time-consistent control model: G = 0 and (s, y)-independent costs
    config = chain_config(np.random.default_rng(7), T=3, n_states=3,
                          n_controls=3, mixer="zero")
    cmodel = build_model(config)
    cdk = discretize(cmodel.kernel, cmodel.grids, cmodel.constraints)
    csol = solve(cmodel, cdk)
    cpre, _ = solve_precommitment(cmodel, cdk, 0, 1)
    cnaive = solve_naive(cmodel, cdk)
    coincide = not (differ(csol.policy, cpre) or differ(csol.policy, cnaive)
                    or differ(cpre, cnaive))
    ok = pairwise and naive_fails and coincide
    _report(5, "time inconsistency demonstrated on LQ", ok,
            f"pairwise={pairwise}, naive_gap={naive_report.worst_gap:.3e}, "
            f"consistent-model-coincide={coincide}")
    assert ok


def test_criterion_6_setwise_continuity():
    kernel = lq_model(LQParams()).kernel
    rng = np.random.default_rng(3)
    M = 1.0
    families = []
    for _ in range(100):
        nb = int(rng.integers(1, 6))
        breaks = np.sort(rng.uniform(-4.0, 4.0, nb))
        levels = rng.uniform(-M, M, nb + 1)
        families.append(StepFunction(breaks=breaks.tolist(),
                                     levels=levels.tolist()))
    u = 0.5
    u_seq = u + 2.0 ** -np.arange(1, 9)
    report = setwise_continuity_probe(kernel, 0, 0.3, u, u_seq, families, M)
    bound_ok = not report.bound_violated
    decay_ok = report.converged

    counter = AdditiveNoise(
        drift=lambda t, x, u: np.zeros(np.broadcast(np.asarray(x),
                                                    np.asarray(u)).shape),
        scale=lambda t, x, u: np.abs(np.asarray(u, dtype=float))
        + 0.0 * np.asarray(x),
        noise=GaussianNoise(), sigma_floor=0.0)
    V = PointIndicator(0.0)
    cr = setwise_continuity_probe(counter, 0, 0.0, 0.0,
                                  1.0 / np.arange(1, 9), [V], 1.0)
    counter_ok = (cr.limit_values[0] == 1.0 and np.all(cr.gaps == 1.0)
                  and not cr.converged)
    ok = bound_ok and decay_ok and counter_ok
    _report(6, "setwise continuity (100 step functions + counterexample)", ok,
            f"bound={bound_ok}, decay={decay_ok}, counterexample={counter_ok}")
    assert ok


def test_criterion_7_levelset_diagnostics():
    p = MeanVarianceParams(T=4)
    model = mv_model(p, n_x=121, n_u=201)
    dk = discretize(model.kernel, model.grids, model.constraints)
    solution = solve(model, dk)
    cf = mv_closed_form(p)
    bounded = True
    for t in range(p.T - 1):
        aux = build_aux(model, dk, solution.policy, t)
        for i in (10, 60, 110):
            u_star = float(solution.policy.controls[t][i])
            f_min = objective_L(model, dk, aux, t, i, u_star)
            r = f_min + cf.quad_a[t] * 1.5 ** 2  # set radius ~1.5, inside [0, 5]
            rep = levelset_probe(model, dk, aux, t, i, r)
            if rep.suspect_non_inf_compact or rep.touches_boundary \
                    or len(rep.intervals) != 1:
                bounded = False

    # monotone cost C = u: the sublevel set runs out of any window
    from markeq import ControlConstraint, Costs, Model
    zeros = lambda *a: np.zeros(np.broadcast(*(np.asarray(v) for v in a)).shape)
    ckernel = AdditiveNoise(
        drift=lambda t, x, u: np.asarray(x, dtype=float) + 0.0 * np.asarray(u),
        scale=lambda t, x, u: np.full(np.broadcast(np.asarray(x),
                                                   np.asarray(u)).shape, 1.0),
        noise=GaussianNoise(), sigma_floor=0.5)
    costs = Costs(running=lambda t, s, y, x, u: np.asarray(u, dtype=float)
                  + zeros(s, y, x),
                  terminal=lambda s, y, xT: zeros(s, y, xT),
                  terminal_stat=lambda xT: np.zeros_like(np.asarray(xT, float)),
                  mixer=lambda s, y, h: zeros(s, y, h))
    cmodel = Model(T=2, grids=[np.linspace(-6, 6, 11)] * 2,
                   constraints=[ControlConstraint.interval(0.0, 5.0, 11)],
                   kernel=ckernel, costs=costs)
    cdk = discretize(cmodel.kernel, cmodel.grids, cmodel.constraints)
    caux = build_aux(cmodel, cdk, None, 0)
    crep = levelset_probe(cmodel, cdk, caux, 0, 5, r=10.0, window=(0.0, 7.0))
    escape = crep.suspect_non_inf_compact
    ok = bounded and escape
    _report(7, "level-set diagnostics (bounded MV sets + escape flag)", ok,
            f"bounded={bounded}, escape-flag={escape}")
    assert ok


def test_criterion_8_determinism(tmp_path):
    # Each run is a child process, so its BLAS reads the thread count at load.
    import json
    import os
    import subprocess
    from pathlib import Path
    config = {"family": "mean_variance", "horizon": 3}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        for command in (["solve", "--out", str(out)], ["verify", "--solution", str(out)]):
            proc = subprocess.run([sys.executable, "-m", "markeq.cli", command[0],
                                   "--config", str(cfg), *command[1:]],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        outs.append(out)
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("policy.csv", "values.csv", "diagnostics.csv", "deviation.csv"))
    _report(8, "byte-identical reruns at 1 and 2 BLAS threads", same)
    assert same
