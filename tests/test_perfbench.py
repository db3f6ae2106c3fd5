"""The benchmark's workloads pass their gates, and the traced benchmark can still wrap
every markeq entry point it names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_spans_install_finds_every_patched_name():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spans; "
            "spans.install(spans.Tracer())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


TRACED_SOLVE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from markeq import LQParams, discretize, lq_model, solve
from markeq import solver

model = lq_model(LQParams(a=0.5), n_x=31, n_u=21)
dk = discretize(model.kernel, model.grids, model.constraints)
plain = solve(model, dk)
tracer = spans.Tracer()
spans.install(tracer)
traced = solver.solve(model, dk)
assert traced.diagnostics.refined, "the instance refines no node"
for a, b in zip(plain.policy.controls, traced.policy.controls):
    assert np.array_equal(a, b)
for a, b in zip(plain.values, traced.values):
    assert np.array_equal(a, b)
refined = [(attrs or {}).get("refined", 0) for name, _, _, _, attrs in tracer.spans
           if name == "solver.bellman_step"]
assert len(refined) == model.T - 1 and sum(refined) > 0, refined
"""


def test_traced_solve_reports_refined_nodes():
    # The traced solve equals the plain one, and its bellman_step spans
    # report the nodes refined.  The solve's search is no longer
    # golden_section, so the benchmark's per-search counts read 0.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", TRACED_SOLVE, str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


TRACED_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from markeq import MeanVarianceParams, discretize, mv_model, solve
from markeq import evaluate

model = mv_model(MeanVarianceParams(T=5), n_x=41, n_u=11)
dk = discretize(model.kernel, model.grids, model.constraints)
solution = solve(model, dk)
plain = evaluate.verify_equilibrium(model, dk, solution)
tracer = spans.Tracer()
spans.install(tracer)
traced = evaluate.verify_equilibrium(model, dk, solution)
for a, b in zip(plain.J_dev, traced.J_dev):
    assert np.array_equal(a, b)
probes = [(attrs or {}).get("probes") for name, _, _, _, attrs in tracer.spans
          if name == "evaluate.deviation_report"]
expected = sum(model.grids[t].size * (dk.controls[t].shape[1] + 1) for t in range(model.T - 1))
assert probes == [expected], (probes, expected)
"""


def test_traced_verify_counts_probes():
    # The benchmark wraps verify_equilibrium and deviation_report and reads
    # the probe count from the report's probe_resolution.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", TRACED_VERIFY, str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


TRACED_CLOSED_FORM = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from markeq import MeanVarianceParams, families

params = MeanVarianceParams(T=5)
plain = families.mv_closed_form(params)
tracer = spans.Tracer()
spans.install(tracer)
traced = families.mv_closed_form(params)
assert np.array_equal(plain.controls, traced.controls)
evals = [(attrs or {}).get("evals", 0) for name, _, _, _, attrs in tracer.spans
         if name == "solver.golden_section"]
assert len(evals) == params.T - 1 and min(evals) > 0, evals
"""


def test_traced_closed_form_counts_golden_section_evals():
    # mv_closed_form's cross-check is the benchmark's last golden_section
    # caller: the wrapper must pass a scalar objective through and count
    # its evaluations, without changing the controls.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", TRACED_CLOSED_FORM, str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["mv_t5", "cli_mix"])
def test_workload_gates_pass(workload, tmp_path):
    # Each benchmark run checks its outputs against the fixed acceptance
    # bounds; a gate broken by a change to markeq fails here, not only when
    # the benchmark is run.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "workload.py"),
                           "--workload", workload, "--seed", "0", "--trace", "0",
                           "--work", str(tmp_path / "work"), "--result", str(result)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    gates = json.loads(result.read_text())["gates"]
    assert gates and all(gates.values()), gates
