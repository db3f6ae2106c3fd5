"""Problem-data validation: constraints, policies, configs, hashing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markeq import (AdditiveNoise, ConfigError, ControlConstraint, Costs,
                    GaussianNoise, LQParams, ModelError, Policy, build_model,
                    config_hash, discretize, lq_model, validate_assumptions)
from markeq.kernels import broadcasting


def test_control_interval_nodes():
    c = ControlConstraint.interval(-2.0, 2.0, 5)
    nodes = c.nodes(np.array([0.0, 1.0]))
    assert nodes.shape == (2, 5)
    np.testing.assert_allclose(nodes[0], [-2, -1, 0, 1, 2])
    np.testing.assert_allclose(nodes[1], nodes[0])


def test_control_interval_rejects_bad_windows():
    with pytest.raises(ModelError):
        ControlConstraint.interval(1.0, -1.0, 5)
    with pytest.raises(ModelError):
        ControlConstraint.interval(0.0, np.inf, 5)
    with pytest.raises(ModelError):
        ControlConstraint.interval(0.0, 1.0, 1)


def test_state_dependent_constraint():
    c = ControlConstraint(lo=lambda x: -np.abs(x), hi=lambda x: np.abs(x),
                          n_nodes=3)
    nodes = c.nodes(np.array([2.0]))
    np.testing.assert_allclose(nodes[0], [-2, 0, 2])


def test_model_rejects_short_horizon():
    with pytest.raises(ModelError, match="horizon must be >= 2"):
        lq_model(LQParams(T=1))


def test_model_rejects_bad_grid():
    model = lq_model(LQParams(T=2), n_x=21, n_u=11)
    from markeq import Model
    bad = [model.grids[0], model.grids[1][::-1]]
    with pytest.raises(ModelError):
        Model(T=2, grids=bad, constraints=model.constraints,
              kernel=model.kernel, costs=model.costs)


def test_policy_feasibility_check():
    model = lq_model(LQParams(T=3), n_x=21, n_u=11)
    good = Policy(controls=[np.zeros(21), np.zeros(21)])
    good.check_feasible(model)
    bad = Policy(controls=[np.full(21, 99.0), np.zeros(21)])
    with pytest.raises(ModelError):
        bad.check_feasible(model)
    wrong_shape = Policy(controls=[np.zeros(5), np.zeros(21)])
    with pytest.raises(ModelError):
        wrong_shape.check_feasible(model)


def test_policy_of_the_wrong_length_is_rejected():
    from markeq import deviation_report, eval_objective_exact
    model = lq_model(LQParams(T=3), n_x=21, n_u=11)
    dk = discretize(model.kernel, model.grids, model.constraints)
    for n in (1, 3):
        policy = Policy(controls=[np.zeros(21)] * n)
        for check in (lambda: policy.check_feasible(model),
                      lambda: deviation_report(model, dk, policy),
                      lambda: eval_objective_exact(model, dk, policy, 0, 10)):
            with pytest.raises(ModelError, match=f"cover {n} times; the model has 2"):
                check()


def test_policy_allows_leading_gaps():
    model = lq_model(LQParams(T=3), n_x=21, n_u=11)
    tail = Policy(controls=[None, np.zeros(21)])
    assert tail.start_time() == 1
    tail.check_feasible(model)


def test_config_hash_stable_under_key_order():
    a = {"family": "lq", "params": {"a": 1.0, "T": 3}, "horizon": 3}
    b = {"horizon": 3, "params": {"T": 3, "a": 1.0}, "family": "lq"}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "horizon": 4})


def test_build_model_families():
    model = build_model({"family": "lq", "params": {"T": 3},
                         "state_grid": {"lo": -4, "hi": 4, "nodes": 31},
                         "control": {"lo": -3, "hi": 3, "nodes": 21}})
    assert model.T == 3
    assert model.grids[0].size == 31
    with pytest.raises(ConfigError):
        build_model({"family": "no_such_family"})
    with pytest.raises(ConfigError):
        build_model({"family": "lq", "horizon": 1})
    with pytest.raises(ConfigError):
        build_model({"family": "discrete_chain"})  # no kernel tables


@pytest.mark.parametrize("family, key", [("lq", "sigam"), ("mean_variance", "sigma"),
                                         ("exp_utility", "phi")])
def test_build_model_rejects_unknown_params(family, key):
    # phi is a field of ExpUtilityParams, but a callable cannot come from a config
    with pytest.raises(ConfigError, match=f"unknown parameter '{key}' for family '{family}'"):
        build_model({"family": family, "params": {key: 2.0}})
    with pytest.raises(ConfigError, match="params of family 'lq' must be a mapping"):
        build_model({"family": "lq", "params": [1.0]})


@pytest.mark.parametrize("config, key", [
    ({"family": "lq", "contol": {"lo": -1.0, "hi": 1.0, "nodes": 5}}, "contol"),
    ({"family": "lq", "state_grid": {"lo": -4.0, "hi": 4.0, "nodes": 31, "node": 3}}, "node"),
    ({"family": "mean_variance", "control": {"lo": 0.0, "hi": 2.0, "nodes": 5, "n": 9}}, "n"),
])
def test_build_model_rejects_unknown_keys(config, key):
    # A misspelt key used to build the default instance silently.
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        build_model(config)


def test_chain_config_rejects_horizon_and_params(chain_small):
    # The chain's horizon is that of its state grids, and it has no params.
    config = chain_small[2]
    assert build_model({**config, "horizon": 3}).T == 3
    with pytest.raises(ConfigError, match="horizon 7 disagrees with 3 state grids"):
        build_model({**config, "horizon": 7})
    with pytest.raises(ConfigError, match="unknown key 'params'"):
        build_model({**config, "params": {"sigam": 2.0}})


@pytest.mark.parametrize("key", ["state_grid", "control"])
def test_chain_config_rejects_grid_windows(chain_small, key):
    # A chain's grids and controls are those of its kernel; a window used
    # to be accepted and ignored, building the 2-node model.
    window = {"lo": 0.0, "hi": 1.0, "nodes": 3}
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        build_model({**chain_small[2], key: window})


@pytest.mark.parametrize("block", [{"costs": {"mixer": "square"}},
                                   {"kernel": {"quad_order": 3}}])
def test_family_config_rejects_chain_blocks(block):
    # Only a chain reads kernel and costs; an lq config with a costs block
    # used to build, and its mixer returned 0.0.
    key = next(iter(block))
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in config of family 'lq'"):
        build_model({"family": "lq", **block})


@pytest.mark.parametrize("block, typo", [("costs", "mixr"), ("kernel", "typo")])
def test_chain_config_rejects_unknown_block_keys(chain_small, block, typo):
    # A misspelt "mixr" used to build the chain with the zero mixer.
    config = chain_small[2]
    with pytest.raises(ConfigError, match=f"unknown key '{typo}' in {block}"):
        build_model({**config, block: {**config[block], typo: "square"}})


def test_build_model_params_override_horizon():
    assert build_model({"family": "lq", "horizon": 4, "params": {"T": 3}}).T == 3
    assert build_model({"family": "lq", "horizon": 4, "params": {"sigma": 2.0}}).T == 4


def test_build_model_horizon_fills_params():
    model = build_model({"family": "mean_variance", "horizon": 3})
    assert model.T == 3


def test_tabulated_costs_lookup(chain_small):
    model, _, config = chain_small
    # Tables are indexed by nearest node; exact nodes read back exactly.
    assert model.costs.running(0, 0, 0.0, 0.0, -1.0) == 0.4
    assert model.costs.running(1, 0, 0.0, 1.0, 1.0) == 0.9
    assert model.costs.terminal(0, 0.0, 1.0) == 2.0
    assert model.costs.terminal_stat(1.0) == 1.0
    assert model.costs.mixer(0, 0.0, 3.0) == 9.0


def test_costs_and_kernel_return_full_float_arrays():
    costs = Costs(running=lambda t, s, y, x, u: np.square(u), terminal=lambda s, y, xT: 1,
                  terminal_stat=lambda xT: xT, mixer=lambda s, y, h: 0.0)
    kernel = AdditiveNoise(drift=lambda t, x, u: x + u, scale=lambda t, x, u: 0.5,
                           noise=GaussianNoise())
    y, x, u = np.arange(3.0)[:, None], np.arange(4.0), np.ones((3, 4))
    for out, shape in [(costs.running(0, 0, y, x, u[0]), (3, 4)),
                       (costs.terminal(0, y, x), (3, 4)), (costs.terminal_stat(x), (4,)),
                       (costs.mixer(0, y, x), (3, 4)), (costs.mixer(0, 1.0, 2.0), ()),
                       (kernel.scale(0, x, u), (3, 4)), (kernel.drift(0, y, x), (3, 4))]:
        assert out.shape == shape and out.dtype == float
        # materialised: a zero-stride broadcast view would push matmuls out of BLAS
        assert out.flags.writeable and out.flags.c_contiguous
    assert np.array_equal(costs.terminal(0, y, x), np.ones((3, 4)))
    assert costs.terminal_stat(x) is x  # a value of the full shape is returned as is
    assert broadcasting(costs.mixer) is costs.mixer
    again = Costs(running=costs.running, terminal=costs.terminal,
                  terminal_stat=costs.terminal_stat, mixer=costs.mixer)
    assert again.running is costs.running  # wrapping twice is a no-op


def test_callable_results_are_wrapped_in_one_place():
    # Costs and AdditiveNoise broadcast their callables' results once, in
    # kernels.broadcasting: no module re-wraps a result, and no family pads one.
    import ast
    from pathlib import Path

    import markeq
    callables = {"running", "terminal", "terminal_stat", "mixer", "drift", "scale"}
    for path in sorted(Path(markeq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if getattr(top, "name", None) == "broadcasting":
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) in ("asarray", "broadcast_to")):
                    called = {getattr(n.func, "attr", getattr(n.func, "id", None))
                              for a in node.args for n in ast.walk(a) if isinstance(n, ast.Call)}
                    assert not called & callables, (path.name, node.lineno)
    families = ast.parse((Path(markeq.__file__).parent / "families.py").read_text())
    for node in ast.walk(families):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            assert not any(isinstance(v, ast.Constant) and v.value == 0
                           for v in (node.left, node.right)), node.lineno
        if isinstance(node, ast.Call):
            assert getattr(node.func, "attr", None) not in ("broadcast", "zeros_like",
                                                            "full"), node.lineno


def test_validate_assumptions_lq():
    model = lq_model(LQParams(T=3), n_x=31, n_u=21)
    report = validate_assumptions(model, samples=500, seed=1)
    assert report.nonnegativity == "pass"
    assert report.sigma_floor == "pass"


def test_validate_assumptions_flags_mean_variance():
    from markeq import MeanVarianceParams, mv_model
    model = mv_model(MeanVarianceParams(T=3), n_x=41, n_u=21)
    report = validate_assumptions(model, samples=500, seed=1)
    # F = x^2 - gamma*x takes negative values; the sufficient condition is
    # not certified, which the report must say rather than hide.
    assert report.nonnegativity == "fail"


def test_clamp_diagnostic_small_on_wide_grids():
    model = lq_model(LQParams(T=3), n_x=61, n_u=21)
    dk = discretize(model.kernel, model.grids, model.constraints)
    assert model.clamp_diagnostic(dk) < 1e-2


@settings(max_examples=30, deadline=None)
@given(lo=st.floats(-5, 0), width=st.floats(0.1, 10), n=st.integers(2, 30))
def test_constraint_nodes_cover_interval(lo, width, n):
    c = ControlConstraint.interval(lo, lo + width, n)
    nodes = c.nodes(np.array([0.0]))[0]
    assert nodes[0] == pytest.approx(lo)
    assert nodes[-1] == pytest.approx(lo + width)
    assert np.all(np.diff(nodes) > 0)
