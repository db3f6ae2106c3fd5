"""Command-line interface: artifacts, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from markeq.cli import build_parser, main


LQ_CONFIG = {
    "family": "lq",
    "horizon": 3,
    "params": {"a": 0.5, "b": 1.0, "sigma": 1.0},
    "state_grid": {"lo": -6.0, "hi": 6.0, "nodes": 61},
    "control": {"lo": -5.0, "hi": 5.0, "nodes": 41},
}

MV_CONFIG = {
    "family": "mean_variance",
    "horizon": 3,
    "params": {"R": 1.02, "mu": 0.05, "sigma2": 0.01, "gamma": 1.0},
}

CHAIN_CONFIG = {
    "family": "discrete_chain",
    "kernel": {
        "state_grids": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        "matrices": [
            [[[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1]]],
            [[[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5], [0.9, 0.1]]],
        ],
        "control_values": [[-1.0, 1.0], [-1.0, 1.0]],
    },
    "costs": {
        "running": [[[0.4, 0.1], [0.3, 0.2]], [[0.6, 0.5], [0.1, 0.9]]],
        "terminal": [1.0, 2.0],
        "terminal_stat": [0.0, 0.0],
        "mixer": "zero",
    },
}  # mixer "zero" with node-independent (s, y): time-consistent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("policy.csv", "values.csv", "diagnostics.csv", "manifest.json"):
        assert (out / name).exists()
    rows = read_rows(out / "policy.csv")
    assert set(rows[0]) == {"t", "node", "state", "control"}
    assert len(rows) == 2 * 61  # one row per (t, node)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config_hash" in manifest


def test_solve_bad_horizon_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**LQ_CONFIG, "horizon": 1})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [("config.yaml", "family: [lq\n"),
                                        ("config.json", '{"family": "lq",'),
                                        ("config.json", '\xff{"family": "lq"}')])
def test_solve_malformed_config_file_exits_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))  # \xff is not UTF-8
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: malformed config {path}:")


@pytest.mark.parametrize("missing", ["state_grids", "matrices", "control_values"])
def test_solve_chain_config_missing_kernel_key_exits_2(tmp_path, capsys, missing):
    kernel = {k: v for k, v in CHAIN_CONFIG["kernel"].items() if k != missing}
    cfg = write_config(tmp_path, {**CHAIN_CONFIG, "kernel": kernel})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"kernel.{missing}" in err


@pytest.mark.parametrize("command", ["solve", "verify", "compare"])
@pytest.mark.parametrize("block, field", [
    ({"costs": 5}, "costs must be a mapping"),
    ({"costs": ["running"]}, "costs must be a mapping"),
    ({"kernel": "state_grids matrices control_values"}, "kernel must be a mapping"),
    ({"kernel": {**CHAIN_CONFIG["kernel"], "state_grids": 5}}, "kernel.state_grids"),
    ({"kernel": {**CHAIN_CONFIG["kernel"], "matrices": 5}}, "kernel.matrices"),
    ({"kernel": {**CHAIN_CONFIG["kernel"], "control_values": "ab"}}, "kernel.control_values")],
    ids=["costs-int", "costs-list", "kernel-text", "grids-int", "matrices-int",
         "controls-text"])
def test_chain_block_of_wrong_type_exits_2_naming_it(tmp_path, capsys, command, block, field):
    # A chain block of the wrong type used to end in a traceback (exit 1),
    # and a kernel given as text passed the missing-key test by substring.
    cfg = write_config(tmp_path, {**CHAIN_CONFIG, **block})
    where = "--solution" if command == "verify" else "--out"
    assert main([command, "--config", cfg, where, str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err


_K, _C = CHAIN_CONFIG["kernel"], CHAIN_CONFIG["costs"]


@pytest.mark.parametrize("command", ["solve", "verify", "compare"])
@pytest.mark.parametrize("block, field", [
    ({"kernel": {**_K, "control_values": _K["control_values"][:1]}}, "control_values entries"),
    ({"kernel": {**_K, "matrices": _K["matrices"][:1]}}, "1 matrices"),
    ({"kernel": {**_K, "state_grids": [[0.0, 1.0], "ab", [0.0, 1.0]]}}, "kernel.state_grids[1]"),
    ({"kernel": {**_K, "matrices": [_K["matrices"][0], "P"]}}, "kernel.matrices[1]"),
    ({"kernel": {**_K, "state_grids": [[0.0, 1.0], [0.0, [1.0]], [0.0, 1.0]]}},
     "kernel.state_grids[1]"),
    ({"kernel": {"state_grids": [], "matrices": [], "control_values": []}},
     "horizon >= 2 disagrees with 0 state grids"),
    ({"costs": {**_C, "running": _C["running"][:1]}}, "costs.running needs 2 tables"),
    ({"costs": {**_C, "running": [[[0.4], [0.3]], _C["running"][1]]}},
     "costs.running[0] has shape (2, 1), expected (2, 2)"),
    ({"costs": {**_C, "running": [_C["running"][0], [["a", 0.5], [0.1, 0.9]]]}},
     "costs.running[1]"),
    ({"costs": {**_C, "terminal": [1.0]}}, "costs.terminal has shape (1,)"),
    ({"costs": {**_C, "terminal": [1.0, 2.0, 3.0]}}, "costs.terminal has shape (3,)"),
    ({"costs": {**_C, "terminal_stat": 5.0}}, "costs.terminal_stat has shape ()"),
    ({"costs": {**_C, "mixer": ["zero"]}}, "unknown mixer ['zero']")],
    ids=["one-control-values", "one-matrix", "grid-text", "matrix-text", "grid-ragged",
         "no-grids", "one-running", "running-2x1", "running-text", "terminal-short", "terminal-long",
         "terminal-stat-scalar", "mixer-list"])
def test_chain_table_of_wrong_length_or_shape_exits_2_naming_it(tmp_path, capsys, command,
                                                                 block, field):
    # These ended in an IndexError, ValueError or TypeError traceback (exit 1),
    # and a terminal table longer than the grid was cut to it without a word.
    cfg = write_config(tmp_path, {**CHAIN_CONFIG, **block})
    where = "--solution" if command == "verify" else "--out"
    assert main([command, "--config", cfg, where, str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err


@pytest.mark.parametrize("command", ["solve", "verify", "compare"])
@pytest.mark.parametrize("window, controls, field", [
    ({"control": {"lo": "a", "hi": 5.0, "nodes": 41}}, [], "control.lo"),
    ({"state_grid": {"lo": -6.0, "hi": 6.0, "nodes": "many"}}, [], "state_grid.nodes"),
    ({"control": {"lo": -5.0, "nodes": 41}}, [], "control.hi"),
    ({"control": "lo"}, [], "control must be a mapping"),
    ({"control": "lo"}, ["--controls", "5"], "control window")],
    ids=["lo-text", "nodes-text", "hi-missing", "not-mapping", "not-mapping-controls"])
def test_malformed_window_exits_2_naming_the_field(tmp_path, capsys, command, window,
                                                    controls, field):
    # Each command reports a bad grid window as a config error, not a traceback.
    cfg = write_config(tmp_path, {**LQ_CONFIG, **window})
    where = "--solution" if command == "verify" else "--out"
    assert main([command, "--config", cfg, where, str(tmp_path / "o"), *controls]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err


def test_solve_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_solve_reruns_byte_identical_across_workers(tmp_path):
    cfg = write_config(tmp_path, MV_CONFIG)
    outs = []
    for name, workers in (("a", "1"), ("b", "4")):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out)
    for name in ("policy.csv", "values.csv", "diagnostics.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_solve_mv_policy_state_constant(tmp_path):
    cfg = write_config(tmp_path, MV_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "policy.csv")
    for t in ("0", "1"):
        us = [float(r["control"]) for r in rows if r["t"] == t]
        assert np.ptp(us) <= 1e-6 * (1.0 + abs(us[0]))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_certifies_solved_run(tmp_path, capsys):
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 0
    assert "certified: worst gap" in capsys.readouterr().out
    assert (out / "deviation.csv").exists()


def test_verify_corrupted_policy_fails_with_location(tmp_path, capsys):
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "policy.csv")
    rows[9]["control"] = repr(float(rows[9]["control"]) + 1.0)
    with open(out / "policy.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["t", "node", "state", "control"])
        w.writeheader()
        w.writerows(rows)
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 4
    err = capsys.readouterr().err
    assert "certification failed" in err
    assert "(t=0, node=9" in err


def test_verify_corrupted_values_fails_with_location(tmp_path, capsys):
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "values.csv")
    rows[61 + 9]["V"] = repr(float(rows[61 + 9]["V"]) + 1e-3)  # t=1, node 9
    with open(out / "values.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["t", "node", "state", "V"])
        w.writeheader()
        w.writerows(rows)
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 4
    err = capsys.readouterr().err
    assert "values.csv mismatch" in err
    assert "(t=1, node=9)" in err


@pytest.mark.parametrize("doc", [
    pytest.param({"family": "lq", "state_grid": {"lo": -6, "hi": 6, "nodes": 21},
                  "control": {"lo": -5, "hi": 5, "nodes": 11}}, id="lq-21x11"),
    pytest.param({"family": "lq"}, id="lq-default"),
])
def test_verify_tol_zero_allows_only_rounding_in_values(tmp_path, capsys, doc):
    # values.csv holds the solver's backward V and the certificate sums
    # forward, so the two differ in the last bits: --tol 0 passes on them,
    # and a V moved by 1e-9 still fails.  On the default LQ the policy's
    # control is also a grid probe, whose gap must be exactly 0.
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    verify = ["verify", "--config", cfg, "--solution", str(out), "--tol", "0"]
    assert main(verify) == 0
    assert "certified: worst gap 0.000e+00" in capsys.readouterr().out
    rows = read_rows(out / "values.csv")
    rows[15]["V"] = repr(float(rows[15]["V"]) + 1e-9)  # t=0, node 15
    with open(out / "values.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["t", "node", "state", "V"])
        w.writeheader()
        w.writerows(rows)
    assert main(verify) == 4
    assert "values.csv mismatch" in capsys.readouterr().err


def test_verify_nonfinite_deviation_objective_exits_4(tmp_path, capsys, monkeypatch):
    import markeq.cli
    from markeq import Costs, Model
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    build = markeq.cli.build_model

    def nan_at_t0(config):  # the running cost is NaN at every t=0 probe
        m = build(config)
        c = m.costs
        running = lambda t, s, y, x, u: np.where(np.asarray(t) == 0, np.nan,
                                                 c.running(t, s, y, x, u))
        return Model(T=m.T, grids=m.grids, constraints=m.constraints, kernel=m.kernel,
                     costs=Costs(running, c.terminal, c.terminal_stat, c.mixer))

    monkeypatch.setattr(markeq.cli, "build_model", nan_at_t0)
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("certification failed: non-finite deviation objective at "
                          "(t=0, node=0, control=")


def test_verify_missing_values_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    (out / "values.csv").unlink()
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 2
    assert "missing solution artifact" in capsys.readouterr().err


@pytest.mark.parametrize("name, field, bad", [
    ("policy.csv", "node", "99"),       # past the last node
    ("policy.csv", "t", "-1"),          # a negative index would wrap to the end
    ("values.csv", "node", "-1"),
    ("values.csv", "V", "high"),
    ("policy.csv", "control", None),    # column missing
    ("values.csv", "V", "nan"),         # parses as a float, but not a finite one
    ("values.csv", "V", "inf"),
    ("policy.csv", "control", "nan"),
])
def test_verify_malformed_solution_csv_exits_2(tmp_path, capsys, name, field, bad):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / name)
    if bad is not None:
        rows[1][field] = bad
    with open(out / name, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=[f for f in rows[0] if bad or f != field],
                           extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(out / name) in err and field in err
    if bad is not None:
        assert f"line 3: bad {field} {bad!r}" in err


@pytest.mark.parametrize("name, field", [("policy.csv", "control"), ("values.csv", "V")])
def test_verify_duplicate_node_row_exits_2(tmp_path, capsys, name, field):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / name)
    # a second claim for (t=0, node=0), listed before the solver's own row
    rows.insert(0, dict(rows[0], **{field: repr(-float(rows[0][field]) - 1.0)}))
    with open(out / name, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    assert main(["verify", "--config", cfg, "--solution", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{out / name} line 3: (t=0, node=0) is listed twice" in err


def test_flags_only_where_used(tmp_path, capsys):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    options = json.loads((out / "manifest.json").read_text())["options"]
    assert options["tol"] is None and options["u_tol"] == 1e-9
    assert main(["verify", "--config", cfg, "--solution", str(out), "--tol", "1e-7"]) == 0
    options = json.loads((out / "manifest.json").read_text())["options"]
    assert options["tol"] == 1e-7 and options["u_tol"] is None
    for argv in (["solve", "--out", str(out), "--tol", "1e-7"],
                 ["compare", "--out", str(out), "--tol", "1e-7"],
                 ["verify", "--solution", str(out), "--u-tol", "1e-7"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--config", cfg])
        assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "--u-tol=nan"], ["solve", "--u-tol=-1"],
                                  ["solve", "--u-tol=0"], ["solve", "--u-tol=inf"],
                                  ["compare", "--u-tol=nan"], ["verify", "--tol=nan"],
                                  ["verify", "--tol=-1"], ["verify", "--tol=inf"]])
def test_tolerance_that_disables_a_check_exits_2(tmp_path, capsys, argv):
    # These ran: a NaN u-tol refined no node, and a NaN or negative tol
    # failed certification (exit 4) though the input was at fault.
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", cfg, "--solution" if argv[0] == "verify" else "--out", str(out)])
    assert info.value.code == 2
    flag, value = argv[1].split("=")
    assert f"argument {flag}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_zero_tol_is_accepted():
    args = build_parser().parse_args(["verify", "--config", "c", "--solution", "s", "--tol", "0"])
    assert args.tol == 0.0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_reports_difference_on_lq(tmp_path, capsys):
    cfg = write_config(tmp_path, LQ_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert "policies differ: first at (t=" in capsys.readouterr().out
    rows = read_rows(out / "compare.csv")
    assert set(rows[0]) == {"t", "node", "state", "u_equilibrium",
                            "u_precommitment", "u_naive", "J1_equilibrium",
                            "J1_precommitment", "J1_naive"}
    j_eq = float(rows[0]["J1_equilibrium"])
    j_pre = float(rows[0]["J1_precommitment"])
    assert j_pre <= j_eq + 1e-9


def test_compare_identical_when_time_consistent(tmp_path, capsys):
    cfg = write_config(tmp_path, CHAIN_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert "policies identical" in capsys.readouterr().out


def test_unknown_family_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"family": "unheard_of", "horizon": 3})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
