"""One execution of one benchmark workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/workload.py --workload mv_t5 --seed 0 \
        --trace 0 --work DIR --result FILE [--spans FILE]

``run.py`` starts this script once per repetition.  It times the
workload's stages, checks the outputs against the fixed acceptance
bounds, and writes one JSON document to ``--result``.  With ``--trace 1``
it first wraps markeq's layer entry points (see ``spans.py``) and adds
the per-layer numbers.  Nothing is printed on success.

The instances are fixed.  The seed picks the nodes of the mean-variance
curvature check and is passed to the CLI's ``--seed``, which only
records it; neither changes the work done.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (stdlib only until the setup stage starts)
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Fixed acceptance bounds; speed work must pass them, not move them.
CERT_TOL = 1e-6            # deviation gap, continuous-noise instances
NAIVE_TOL = 1e-9           # deviation gap the naive policy must exceed
CLOSED_FORM_TOL = 1e-6     # MV equilibrium control against the closed form
CURVATURE_TOL = 1e-8       # MV u^2 coefficient against R^(2e) sigma2
VALUE_IDENTITY_TOL = 1e-8  # value identity, quadrature kernels
U_TOL = 1e-9               # golden-section refinement tolerance

# Instances.  The acceptance-2 instance (MV T=5, 201x401) needs about
# 50 s per pass, more than one benchmark run allows.  201 state nodes are
# kept, because at 161 the t=3 curvature error (2.7e-7) exceeds its bound;
# 41 control nodes keep one repetition near 11 s.  The 31x21 chain keeps
# ``markeq compare`` near 4.5 s (the default 81x41 chain takes over 30 s).
MV_GRID = {"n_x": 201, "n_u": 41}
MV_CURVATURE_NODES = 7
EXP_CONFIG = {"family": "exp_utility"}
CHAIN_CONFIG = {"family": "mean_variance_chain",
                "state_grid": {"lo": -2.0, "hi": 4.0, "nodes": 31},
                "control": {"lo": 0.0, "hi": 5.0, "nodes": 21}}


class Run:
    """Stage clock, gate tally and optional tracer for one execution."""

    def __init__(self, tracer, seed, work):
        self.tracer = tracer
        self.seed = seed
        self.work = work
        self.times = defaultdict(float)
        self.gates = {}
        self.accuracy = {}
        self.cli_overhead_s = 0.0
        self.bytes_written = 0

    @contextlib.contextmanager
    def stage(self, name):
        """Time a block into ``times[name + '_s']``; a root span when tracing."""
        region = self.tracer.region(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with region:
            yield
        self.times[f"{name}_s"] += time.perf_counter() - t0

    def check(self):
        """Region for the accuracy gates; excluded from per-layer numbers."""
        return self.tracer.region(spans.CHECK) if self.tracer else contextlib.nullcontext()

    def gate(self, name, ok):
        self.gates[name] = bool(ok)

    def load(self):
        """Import markeq from the checkout and, when tracing, wrap its layers."""
        import markeq
        from markeq import cli, evaluate, families, kernels, model, solver
        src = (ROOT / "src").resolve()
        if src not in Path(markeq.__file__).resolve().parents:
            raise RuntimeError(f"markeq imported from {markeq.__file__}, not {src}")
        if self.tracer:
            spans.install(self.tracer)
        return SimpleNamespace(cli=cli, evaluate=evaluate, families=families,
                               kernels=kernels, model=model, solver=solver)

    def cli(self, m, argv, out_dir):
        """Run ``markeq.cli.main`` in process; returns (exit code, stdout).

        The manifest is read right after the command, because a later
        ``verify`` overwrites the one ``solve`` wrote.  The command's wall
        time minus the manifest's own ``timings_s`` is CLI overhead.
        """
        argv = [str(a) for a in argv] + ["--seed", str(self.seed)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = m.cli.main(argv)
        wall = time.perf_counter() - t0
        self.times["cli_s"] += wall
        manifest = json.loads((out_dir / "manifest.json").read_text())
        self.cli_overhead_s += wall - sum(manifest["timings_s"].values())
        self.times["solve_s"] += manifest["timings_s"].get("solve", 0.0)
        self.times["certify_s"] += manifest["timings_s"].get("verify", 0.0)
        return code, buf.getvalue()


def _differ(a, b, steps):
    """Some control differs by more than one control-grid step."""
    import numpy as np
    return any(np.max(np.abs(np.asarray(x) - np.asarray(y))) > s
               for x, y, s in zip(a, b, steps))


def mv_t5(run):
    """Library pipeline on mean-variance T=5: refinement and certificate."""
    import numpy as np
    with run.stage("setup"):
        m = run.load()
        params = m.families.MeanVarianceParams(T=5)
        model = m.families.mv_model(params, **MV_GRID)
        dk = m.kernels.discretize(model.kernel, model.grids, model.constraints)
    with run.stage("solve"):
        sol = m.solver.solve(model, dk, m.solver.SolveOptions(u_tol=U_TOL))
    with run.stage("certify"):
        report = m.evaluate.verify_equilibrium(model, dk, sol, tol=CERT_TOL)
    with run.check():
        cf = m.families.mv_closed_form(params)
        controls = sol.policy.controls
        ptp = max(float(np.ptp(u)) / (1.0 + abs(c)) for u, c in zip(controls, cf.controls))
        err = max(float(np.max(np.abs(u - c))) for u, c in zip(controls, cf.controls))
        rng = random.Random(run.seed)
        curv = 0.0
        for t in range(params.T - 1):
            aux = m.solver.build_aux(model, dk, sol.policy, t)
            want = params.R ** (2 * (params.T - 2 - t)) * params.sigma2
            for i in rng.sample(range(model.grids[t].size), MV_CURVATURE_NODES):
                u = float(controls[t][i])
                L = [m.solver.objective_L(model, dk, aux, t, i, u + d) for d in (1.0, 0.0, -1.0)]
                curv = max(curv, abs((L[0] - 2.0 * L[1] + L[2]) / 2.0 - want))
        resid = max(m.solver.value_identity_check(model, dk, sol, t)
                    for t in range(params.T - 2))
    run.gate("certified", report.certified and report.worst_gap <= CERT_TOL)
    run.gate("state_constant", ptp <= CLOSED_FORM_TOL)
    run.gate("closed_form", err <= max(U_TOL, CLOSED_FORM_TOL))
    run.gate("curvature", curv <= CURVATURE_TOL)
    run.gate("value_identity", resid <= VALUE_IDENTITY_TOL)
    run.accuracy.update({"acc.worst_gap": report.worst_gap, "acc.mv_control_err": err,
                         "acc.curvature_err": curv, "acc.value_identity_resid": resid})


def cli_mix(run):
    """The CLI path: exp_utility solve and verify, a chain compare, a cache round trip.

    No node is refined here: every exp_utility optimum sits on the control
    boundary and the mean-variance chain is never refined, so the solver's
    refinement does no work, while the baselines run inside ``markeq compare``.
    """
    import csv
    import numpy as np
    with run.stage("setup"):
        m = run.load()
        model = m.model.build_model(dict(EXP_CONFIG))
        dk = m.kernels.discretize(model.kernel, model.grids, model.constraints)
    exp_cfg = run.work / "exp_utility.json"
    exp_cfg.write_text(json.dumps(EXP_CONFIG))
    chain_cfg = run.work / "mv_chain.json"
    chain_cfg.write_text(json.dumps(CHAIN_CONFIG))
    a, b, out = run.work / "solve_a", run.work / "solve_b", run.work / "compare"
    code_a, _ = run.cli(m, ["solve", "--config", exp_cfg, "--out", a], a)
    code_b, _ = run.cli(m, ["solve", "--config", exp_cfg, "--out", b], b)
    code_v, said = run.cli(m, ["verify", "--config", exp_cfg, "--solution", a], a)
    with run.stage("compare"):
        code_c, _ = run.cli(m, ["compare", "--config", chain_cfg, "--out", out], out)
    cache = run.work / "kernel.mkeqdk"
    with run.stage("cache"):
        m.kernels.save_kernel_cache(dk, cache)
        loaded = m.kernels.load_kernel_cache(cache, spec=model.kernel)
    with run.check():
        same_csv = all((a / n).read_bytes() == (b / n).read_bytes()
                       for n in ("policy.csv", "values.csv", "diagnostics.csv"))
        same_cache = all(
            len(getattr(loaded, f)) == len(getattr(dk, f))
            and all(np.array_equal(x, y) for x, y in zip(getattr(loaded, f), getattr(dk, f)))
            for f in ("weights", "controls", "grids", "clamped"))
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        j1 = {k: float(rows[0][f"J1_{k}"]) for k in ("equilibrium", "precommitment", "naive")}
        T = 1 + max(int(r["t"]) for r in rows)
        cols = {k: [np.array([float(r[f"u_{k}"]) for r in rows if int(r["t"]) == t])
                    for t in range(T)]
                for k in ("equilibrium", "precommitment", "naive")}
        ctl = CHAIN_CONFIG["control"]
        steps = [(ctl["hi"] - ctl["lo"]) / (ctl["nodes"] - 1)] * T
        # Certify the naive policy that ``compare`` wrote, on the same chain.
        chain = m.model.build_model(dict(CHAIN_CONFIG))
        chain_dk = m.kernels.discretize(chain.kernel, chain.grids, chain.constraints)
        naive_report = m.evaluate.deviation_report(
            chain, chain_dk, m.model.Policy(controls=cols["naive"]), tol=NAIVE_TOL)
    run.gate("exit_codes", code_a == code_b == code_v == code_c == 0)
    run.gate("certified", said.startswith("certified:"))
    run.gate("csv_identical", same_csv)
    run.gate("cache_roundtrip", same_cache)
    run.gate("j1_precommitment_lowest",
             j1["precommitment"] <= j1["equilibrium"] and j1["precommitment"] <= j1["naive"])
    run.gate("pairwise_differ", all(
        _differ(cols[x], cols[y], steps)
        for x, y in (("equilibrium", "precommitment"), ("equilibrium", "naive"),
                     ("precommitment", "naive"))))
    run.gate("naive_not_certified", not naive_report.certified and naive_report.worst_gap > 0)
    if said.startswith("certified:"):
        run.accuracy["acc.worst_gap"] = float(said.split()[3])
    run.accuracy["acc.naive_gap"] = naive_report.worst_gap
    run.bytes_written = sum(p.stat().st_size for d in (a, b, out) for p in d.iterdir())


WORKLOADS = {"mv_t5": mv_t5, "cli_mix": cli_mix}


def _environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    parser.add_argument("--result", type=Path, required=True, help="JSON result file")
    parser.add_argument("--spans", type=Path, help="JSON-lines span file (traced runs)")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    args.work.mkdir(parents=True, exist_ok=True)
    run = Run(tracer, args.seed, args.work)
    WORKLOADS[args.workload](run)
    total_s = time.perf_counter() - T_START
    result = {
        "gates": run.gates,
        "accuracy": run.accuracy,
        "times": {**run.times, "total_s": total_s},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_overhead_s": run.cli_overhead_s,
        "bytes_written": run.bytes_written,
        "environment": _environment(),
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
