"""Spans around the public entry points of each markeq layer.

The program itself carries no tracing.  ``install`` replaces entry points
in the markeq modules with wrappers that record one span per call:
name, parent, start, end and optional attributes.  Names imported by
name are patched in every module that imports them, and the
``DiscretizedKernel`` row methods are patched on the class, so calls
made inside the package are seen too.

Spans are kept in memory; ``Tracer.write`` saves them as JSON lines at
the end of a traced workload, and ``layer_metrics`` reduces them to the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

LAYERS = ("kernels", "solver", "evaluate", "cli")
CHECK = "bench.check"


class Tracer:
    def __init__(self):
        # One span is [name, parent index or -1, start, end, attrs or None].
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def region(self, name):
        """Record the enclosed block as one span; yields the span record."""
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span; it runs after the span's end time is taken.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.region(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def annotate(self, **attrs):
        """Add attributes to the innermost open span."""
        rec = self.spans[self._stack[-1]]
        rec[4] = {**(rec[4] or {}), **attrs}

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def _kernel_attrs(args, kwargs, dk):
    import numpy as np
    entries = sum(W.size for W in dk.weights)
    nnz = sum(int(np.count_nonzero(W > 1e-16)) for W in dk.weights)
    return {"weights_mb": sum(W.nbytes for W in dk.weights) / 1e6,
            "nnz_frac": nnz / entries}


def _step_attrs(args, kwargs, result):
    diag = result[2]
    return {"refined": len(diag.refined_nodes), "boundary": len(diag.boundary_nodes)}


def _probe_attrs(args, kwargs, report):
    model = args[0]
    return {"probes": sum(model.grids[t].size * p
                          for t, p in enumerate(report.probe_resolution))}


def _cache_attrs(args, kwargs, result):
    return {"mb": os.path.getsize(args[1]) / 1e6}


def install(tracer):
    """Patch markeq's layer entry points to record spans into ``tracer``."""
    from markeq import cli, evaluate, families, kernels, model, solver

    def patch(name, homes, attr, attrs=None):
        wrapped = tracer.span(name, getattr(homes[0], attr), attrs)
        for home in homes:
            setattr(home, attr, wrapped)

    def golden(fn):
        # Count objective evaluations by wrapping the objective passed in.
        def golden_section(f, *args, **kwargs):
            evals = [0]

            def counted(u):
                evals[0] += 1
                return f(u)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.annotate(evals=evals[0])
        return functools.wraps(fn)(golden_section)

    for fam in ("lq_model", "nonlinear_lq_variant", "mv_model", "mv_chain_model",
                "exp_utility_model"):
        patch("model.build", [families], fam)
    patch("model.build", [model, cli], "build_model")

    patch("kernels.discretize", [kernels, cli], "discretize", _kernel_attrs)
    patch("kernels.row", [kernels.DiscretizedKernel], "row")
    patch("kernels.row_block", [kernels.DiscretizedKernel], "row_block")
    patch("kernels.policy_matrix", [kernels, solver, evaluate], "policy_matrix")
    patch("kernels.save_kernel_cache", [kernels], "save_kernel_cache", _cache_attrs)
    patch("kernels.load_kernel_cache", [kernels], "load_kernel_cache")

    patch("solver.solve", [solver, cli], "solve")
    patch("solver.build_aux", [solver], "build_aux")
    patch("solver.objective_grid", [solver], "objective_grid")
    patch("solver.bellman_step", [solver], "bellman_step", _step_attrs)
    patch("solver.value_identity_check", [solver], "value_identity_check")
    inner = tracer.span("solver.golden_section", golden(solver.golden_section))
    for home in (solver, evaluate, families):
        home.golden_section = inner

    patch("evaluate.deviation_report", [evaluate], "deviation_report", _probe_attrs)
    patch("evaluate.verify_equilibrium", [evaluate], "verify_equilibrium")
    patch("evaluate.solve_precommitment", [evaluate], "solve_precommitment")
    patch("evaluate.linear_dp", [evaluate], "_dp_linear")
    patch("evaluate.solve_naive", [evaluate], "solve_naive")
    patch("evaluate.eval_objective_exact", [evaluate], "eval_objective_exact")

    patch("cli.main", [cli], "main")
    for cmd in ("cmd_solve", "cmd_verify", "cmd_compare"):
        patch(f"cli.{cmd}", [cli], cmd)
    patch("cli.write_csv", [cli], "_write_csv")
    patch("cli.deviation_csv", [evaluate.DeviationReport], "to_csv")


def layer_metrics(spans):
    """Per-layer totals, counts and self times from a list of spans.

    Spans inside a ``CHECK`` region (the benchmark's own accuracy gates)
    are left out, so the numbers describe the pipeline alone.
    """
    by_name = defaultdict(list)
    child_time = [0.0] * len(spans)
    skip = [False] * len(spans)
    for i, (name, parent, start, end, _) in enumerate(spans):
        # A parent is always recorded before its children.
        skip[i] = name == CHECK or (parent >= 0 and skip[parent])
        if skip[i]:
            continue
        by_name[name].append(i)
        if parent >= 0:
            child_time[parent] += end - start

    def dur(i):
        return spans[i][3] - spans[i][2]

    def under(i, ancestor):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][1]
        return False

    def pick(name, ancestor=None, parent=None):
        ids = by_name.get(name, [])
        if ancestor is not None:
            ids = [i for i in ids if under(i, ancestor)]
        if parent is not None:
            ids = [i for i in ids if spans[i][1] >= 0 and spans[spans[i][1]][0] == parent]
        return ids

    def total(ids):
        return sum(dur(i) for i in ids)

    def attr_sum(ids, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in ids)

    def ratio(a, b):
        return a / b if b else 0.0

    kernels_built = [spans[i][4] for i in pick("kernels.discretize")]
    largest = max(kernels_built, key=lambda a: a["weights_mb"],
                  default={"weights_mb": 0.0, "nnz_frac": 0.0})
    outer_builds = [i for i in pick("model.build") if not under(i, "model.build")]
    golden = pick("solver.golden_section", parent="solver.bellman_step")
    steps = pick("solver.bellman_step")
    refined = attr_sum(steps, "refined")
    precommits = pick("evaluate.solve_precommitment")
    dps = pick("evaluate.linear_dp")

    out = {
        "model.build_s": total(outer_builds),
        "kernels.discretize_s": total(pick("kernels.discretize")),
        "kernels.weights_mb": largest["weights_mb"],
        "kernels.nnz_frac": largest["nnz_frac"],
        "kernels.row_calls": len(pick("kernels.row")),
        "kernels.row_s": total(pick("kernels.row")),
        "kernels.row_block_s": total(pick("kernels.row_block")),
        "kernels.policy_matrix_calls": len(pick("kernels.policy_matrix")),
        "kernels.policy_matrix_s": total(pick("kernels.policy_matrix")),
        "kernels.cache_save_s": total(pick("kernels.save_kernel_cache")),
        "kernels.cache_load_s": total(pick("kernels.load_kernel_cache")),
        "kernels.cache_mb": attr_sum(pick("kernels.save_kernel_cache"), "mb"),
        "solver.build_aux_s": total(pick("solver.build_aux", ancestor="solver.solve")),
        "solver.objective_grid_s": total(pick("solver.objective_grid")),
        "solver.refine_s": total(golden),
        "solver.golden_calls": len(golden),
        "solver.objective_evals": attr_sum(golden, "evals"),
        "solver.refined_nodes": refined,
        "solver.boundary_nodes": attr_sum(steps, "boundary"),
        "solver.refine_yield": ratio(refined, len(golden)),
        "evaluate.deviation_report_s": total(pick("evaluate.deviation_report")),
        "evaluate.probes": attr_sum(pick("evaluate.deviation_report"), "probes"),
        "evaluate.precommit_calls": len(precommits),
        "evaluate.precommit_s": total(precommits),
        "evaluate.linear_dps": len(dps),
        "evaluate.dp_yield": ratio(len(precommits), len(dps)),
        "evaluate.naive_s": total(pick("evaluate.solve_naive")),
        "evaluate.eval_exact_calls": len(pick("evaluate.eval_objective_exact")),
        "cli.solve_cmd_s": total(pick("cli.cmd_solve")),
        "cli.verify_cmd_s": total(pick("cli.cmd_verify")),
        "cli.compare_cmd_s": total(pick("cli.cmd_compare")),
        "cli.discretize_calls": len(pick("kernels.discretize", ancestor="cli.main")),
        "cli.deviation_csv_s": total(pick("cli.deviation_csv")),
    }
    self_time = defaultdict(float)
    for i, rec in enumerate(spans):
        if not skip[i]:
            self_time[rec[0].split(".")[0]] += dur(i) - child_time[i]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    return out
