"""Batch front-end: solve, verify, and compare from a config document.

Exit codes: 0 success, 2 config/input error, 3 solver failure,
4 certification failure.  All outputs are CSV plus a JSON run manifest;
re-running a command with an identical config reproduces byte-identical
CSV bodies regardless of --workers (reductions are always in node order).
--workers and --seed are only recorded in the manifest: no thread cap is
applied, and nothing in solve, verify or compare is random.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .errors import ConfigError, MarkeqError, ModelError
from .kernels import discretize
from .model import Model, Policy, build_model, config_hash
from .solver import U_TOL, SolveOptions, solve

_FLOAT_FMT = "{:.17g}"


def load_config(path) -> dict:
    """The config document at ``path``, YAML by suffix, else JSON.

    A missing, unreadable or malformed file, or one that is not a
    mapping, raises ConfigError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config not found: {path}")
    if path.suffix in (".yaml", ".yml"):
        import yaml
        parse, malformed = yaml.safe_load, yaml.YAMLError
    else:
        parse, malformed = json.loads, json.JSONDecodeError
    try:
        doc = parse(path.read_text())
    except (malformed, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config document {path} must be a mapping")
    return doc


def _prepare(config: dict, args):
    if args.controls is not None:
        config.setdefault("control", {})
        if "lo" not in config.get("control", {}):
            raise ConfigError("--controls needs a control window in the config")
        config["control"]["nodes"] = args.controls
    model = build_model(config)
    quad_order = args.quad_order or int(config.get("kernel", {}).get("quad_order", 41))
    dk = discretize(model.kernel, model.grids, model.constraints, quad_order=quad_order)
    return model, dk, quad_order


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, (int, str)) else _FLOAT_FMT.format(c)
                        for c in row])


def _policy_rows(model: Model, policy: Policy):
    for t in range(model.T - 1):
        for i, x in enumerate(model.grids[t]):
            yield (t, i, float(x), float(policy.controls[t][i]))


def _manifest(out_dir: Path, config: dict, args, quad_order: int, timings: dict,
              artifacts):
    doc = {
        "config_hash": config_hash(config),
        "options": {"quad_order": quad_order, "u_tol": getattr(args, "u_tol", None),
                    "tol": getattr(args, "tol", None),
                    "controls": args.controls, "workers": args.workers},
        "seed": args.seed,
        "timings_s": timings,
        "artifacts": sorted(str(a) for a in artifacts),
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def cmd_solve(args) -> int:
    try:
        config = load_config(args.config)
        model, dk, quad_order = _prepare(config, args)
    except MarkeqError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        solution = solve(model, dk, SolveOptions(u_tol=args.u_tol))
    except MarkeqError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    timings = {"solve": time.perf_counter() - t0}

    _write_csv(out / "policy.csv", ["t", "node", "state", "control"],
               _policy_rows(model, solution.policy))
    _write_csv(out / "values.csv", ["t", "node", "state", "V"],
               ((t, i, float(model.grids[t][i]), float(solution.values[t][i]))
                for t in range(model.T - 1) for i in range(model.grids[t].size)))
    diag_rows = [("boundary_hit", t, i, "") for t, i in solution.diagnostics.boundary_hits]
    diag_rows += [("refined", t, i, "") for t, i in solution.diagnostics.refined]
    if solution.diagnostics.clamped_mass is not None:
        diag_rows.append(("clamped_mass", "", "",
                          _FLOAT_FMT.format(solution.diagnostics.clamped_mass)))
    _write_csv(out / "diagnostics.csv", ["kind", "t", "node", "value"], diag_rows)
    artifacts = [out / n for n in ("policy.csv", "values.csv", "diagnostics.csv")]
    _manifest(out, config, args, quad_order, timings, artifacts)
    return 0


def _cell(row: dict, name: str, where: str, size=None):
    """row[name] as a finite float, or as an index in [0, size); else ConfigError naming it."""
    try:
        v = float(row[name]) if size is None else int(row[name])
        if (np.isfinite(v) if size is None else 0 <= v < size):
            return v
    except (TypeError, ValueError):
        pass
    expected = "a finite number" if size is None else f"an index in [0, {size})"
    raise ConfigError(f"{where}: bad {name} {row[name]!r}, expected {expected}")


def _read_node_table(model: Model, path: Path, column: str):
    """One float per decision (t, node) from a CSV with columns t, node and ``column``.

    A missing column, a malformed field or one out of the model's range,
    a (t, node) listed twice, or an uncovered (t, node) raises ConfigError
    naming the file (and the line and field).
    """
    table = [np.full(model.grids[t].size, np.nan) for t in range(model.T - 1)]
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = sorted({"t", "node", column} - set(reader.fieldnames or ()))
        if missing:
            raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            t = _cell(row, "t", where, len(table))
            i = _cell(row, "node", where, table[t].size)
            if (t, i) in seen:
                raise ConfigError(f"{where}: (t={t}, node={i}) is listed twice")
            seen.add((t, i))
            table[t][i] = _cell(row, column, where)
    if any(np.any(np.isnan(c)) for c in table):
        raise ConfigError(f"{path.name} does not cover every (t, node)")
    return table


def _load_solution(model: Model, solution_dir: Path):
    policy_path = solution_dir / "policy.csv"
    values_path = solution_dir / "values.csv"
    for p in (policy_path, values_path):
        if not p.exists():
            raise ConfigError(f"missing solution artifact: {p}")
    return (Policy(controls=_read_node_table(model, policy_path, "control")),
            _read_node_table(model, values_path, "V"))


def cmd_verify(args) -> int:
    try:
        config = load_config(args.config)
        model, dk, quad_order = _prepare(config, args)
        policy, claimed = _load_solution(model, Path(args.solution))
        policy.check_feasible(model)
    except (MarkeqError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        report = ev.deviation_report(model, dk, policy, tol=args.tol)
    except ModelError as exc:  # a non-finite deviation objective
        print(f"certification failed: {exc}", file=sys.stderr)
        return 4
    timings = {"verify": time.perf_counter() - t0}
    out = Path(args.solution)
    report.to_csv(out / "deviation.csv")
    _manifest(out, config, args, quad_order, timings, [out / "deviation.csv"])
    if not report.certified:
        t, i, u = report.argmax
        print(f"certification failed: worst gap {report.worst_gap:.3e} at "
              f"(t={t}, node={i}, control={u:.6g}) exceeds tol {args.tol:.3e}",
              file=sys.stderr)
        return 4
    # The claimed V must be the policy's own value J_t(x; policy).
    for t, (v, j) in enumerate(zip(claimed, report.values)):
        i = int(np.argmax(np.abs(v - j)))
        if abs(v[i] - j[i]) > args.tol:
            print(f"values.csv mismatch: claimed V {v[i]:.17g} at (t={t}, node={i}) "
                  f"differs from the policy's value {j[i]:.17g} by more than tol "
                  f"{args.tol:.3e}", file=sys.stderr)
            return 4
    print(f"certified: worst gap {report.worst_gap:.3e} <= tol {args.tol:.3e} "
          f"(probe resolution {report.probe_resolution})")
    return 0


def cmd_compare(args) -> int:
    try:
        config = load_config(args.config)
        model, dk, quad_order = _prepare(config, args)
    except MarkeqError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        solution = solve(model, dk, SolveOptions(u_tol=args.u_tol))
        i0 = model.grids[0].size // 2
        pre_policy, pre_value = ev.solve_precommitment(model, dk, 0, i0)
        naive_policy = ev.solve_naive(model, dk)
    except MarkeqError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    timings = {"compare": time.perf_counter() - t0}

    j1_eq = ev.eval_objective_exact(model, dk, solution.policy, 0, i0)
    j1_pre = ev.eval_objective_exact(model, dk, pre_policy, 0, i0)
    j1_naive = ev.eval_objective_exact(model, dk, naive_policy, 0, i0)

    rows = []
    first_diff = None
    for t in range(model.T - 1):
        step = float(np.max(np.diff(dk.controls[t], axis=1), initial=0.0))
        for i, x in enumerate(model.grids[t]):
            ue = float(solution.policy.controls[t][i])
            up = float(pre_policy.controls[t][i])
            un = float(naive_policy.controls[t][i])
            rows.append((t, i, float(x), ue, up, un, j1_eq, j1_pre, j1_naive))
            if first_diff is None and abs(ue - up) > step:
                first_diff = (t, i)
    _write_csv(out / "compare.csv",
               ["t", "node", "state", "u_equilibrium", "u_precommitment", "u_naive",
                "J1_equilibrium", "J1_precommitment", "J1_naive"], rows)
    _manifest(out, config, args, quad_order, timings, [out / "compare.csv"])
    if first_diff is None:
        print("policies identical (equilibrium = precommitment at grid resolution)")
    else:
        print(f"policies differ: first at (t={first_diff[0]}, node={first_diff[1]})")
    return 0


def _tolerance(zero_ok: bool):
    """argparse type: a finite number above 0, or at or above 0 if ``zero_ok``."""
    def parse(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            v = float("nan")
        if np.isfinite(v) and (v > 0.0 or (zero_ok and v == 0.0)):
            return v
        raise argparse.ArgumentTypeError(
            f"expected a finite number {'>=' if zero_ok else '>'} 0, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markeq",
        description="Equilibrium policies for time-inconsistent stochastic control")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config document (JSON or YAML)")
        p.add_argument("--workers", type=int, default=1,
                       help="recorded in the manifest only; no thread cap is applied")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the manifest only; nothing here is random")
        p.add_argument("--quad-order", type=int, default=None, dest="quad_order")
        p.add_argument("--controls", type=int, default=None,
                       help="override the control grid node count M_u")

    def u_tol(p):
        p.add_argument("--u-tol", type=_tolerance(zero_ok=False), default=U_TOL, dest="u_tol",
                       help=f"refinement tolerance of the equilibrium solve (default {U_TOL:g}; "
                       f"the baselines always refine at {U_TOL:g})")

    p = sub.add_parser("solve", help="solve and write policy/value/diagnostic tables")
    common(p)
    u_tol(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="deviation-test a solved policy directory")
    common(p)
    p.add_argument("--tol", type=_tolerance(zero_ok=True), default=1e-6,
                   help="certification tolerance on the deviation gap and on values.csv")
    p.add_argument("--solution", required=True, help="directory holding policy.csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="equilibrium vs precommitment vs naive")
    common(p)
    u_tol(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
