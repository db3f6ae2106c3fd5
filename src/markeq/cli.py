"""Batch front-end: solve, verify, and compare from a config document.

Each command loads and discretizes its config (a failure exits 2, "config
error"), runs (3, "solver failure"; verify exits 4, "certification
failed"), and writes CSVs through one writer, ``evaluate.write_csv``, plus
a JSON run manifest.  ``verify`` writes the certificate, ``deviation.csv``,
one row per (t, node) with the node's worst probe.  Re-running a command
with an identical config reproduces byte-identical CSV bodies, at one
BLAS thread or two alike (reductions are always in node order).  --seed
is only recorded in the manifest: nothing in solve, verify or compare is
random.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .errors import ConfigError, MarkeqError, ModelError
from .evaluate import write_csv as _write_csv
from .kernels import discretize
from .model import Model, Policy, build_model, config_hash
from .solver import NOISE, U_TOL, SolveOptions, solve


class _Exit(Exception):
    """A failed phase as (exit code, stderr line); ``main`` reports it."""


@contextlib.contextmanager
def _phase(code: int, label: str, errors=MarkeqError):
    """Turn ``errors`` raised in the block into ``_Exit(code, "label: error")``."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, f"{label}: {exc}") from exc


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


def _prepare(args):
    """The config (with --controls applied), its model and discretized kernel."""
    config = load_config(args.config)
    if args.controls is not None:
        window = config.get("control")
        if not (isinstance(window, dict) and "lo" in window):
            raise ConfigError("--controls needs a control window (lo, hi) in the config")
        window["nodes"] = args.controls
    model = build_model(config)
    return config, model, discretize(model.kernel, model.grids, model.constraints)


def _node_blocks(model: Model, *tables):
    """One block per decision time t: columns t, node index, state and each table's row t."""
    return [(t, np.arange(x.size), x, *(tab[t] for tab in tables))
            for t, x in enumerate(model.grids[:-1])]


def _manifest(out_dir: Path, config: dict, args, timings: dict, artifacts, **extra):
    doc = {
        "config_hash": config_hash(config),
        "options": {"u_tol": getattr(args, "u_tol", None), "tol": getattr(args, "tol", None),
                    "controls": args.controls},
        "seed": args.seed,
        "timings_s": timings,
        "artifacts": sorted(str(a) for a in artifacts),
        **extra,
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def cmd_solve(args) -> int:
    with _phase(2, "config error"):
        config, model, dk = _prepare(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with _phase(3, "solver failure"):
        solution = solve(model, dk, SolveOptions(u_tol=args.u_tol))
    timings = {"solve": time.perf_counter() - t0}

    _write_csv(out / "policy.csv", ["t", "node", "state", "control"], "%d,%d,%.17g,%.17g",
               _node_blocks(model, solution.policy.controls))
    _write_csv(out / "values.csv", ["t", "node", "state", "V"], "%d,%d,%.17g,%.17g",
               _node_blocks(model, solution.values))
    diag = solution.diagnostics
    blocks = [(kind, *np.reshape(np.array(hits, dtype=int), (-1, 2)).T, "")
              for kind, hits in (("boundary_hit", diag.boundary_hits), ("refined", diag.refined))]
    if diag.clamped_mass is not None:
        blocks.append(("clamped_mass", "", "", "%.17g" % diag.clamped_mass))
    _write_csv(out / "diagnostics.csv", ["kind", "t", "node", "value"], "%s,%s,%s,%s", blocks)
    artifacts = [out / n for n in ("policy.csv", "values.csv", "diagnostics.csv")]
    _manifest(out, config, args, timings, artifacts)
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

    A missing file or column, a malformed field or one out of the model's
    range, a (t, node) listed twice, or an uncovered (t, node) raises
    ConfigError naming the file (and the line and field).
    """
    if not path.exists():
        raise ConfigError(f"missing solution artifact: {path}")
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


def cmd_verify(args) -> int:
    out = Path(args.solution)
    with _phase(2, "config error", (MarkeqError, ValueError)):
        config, model, dk = _prepare(args)
        policy = Policy(controls=_read_node_table(model, out / "policy.csv", "control"))
        claimed = _read_node_table(model, out / "values.csv", "V")
        policy.check_feasible(model)
    t0 = time.perf_counter()
    with _phase(4, "certification failed", ModelError):  # a non-finite deviation objective
        report = ev.deviation_report(model, dk, policy, tol=args.tol)
    timings = {"verify": time.perf_counter() - t0}
    report.to_csv(out / "deviation.csv")
    _manifest(out, config, args, timings, [out / "deviation.csv"], deviation_format=2)
    if not report.certified:
        t, i, u = report.argmax
        raise _Exit(4, f"certification failed: worst gap {report.worst_gap:.3e} at "
                       f"(t={t}, node={i}, control={u:.6g}) exceeds tol {args.tol:.3e}")
    # The claimed V must be the policy's own value J_t(x; policy), up to tol
    # plus the rounding between the solver's backward and this forward sum.
    for t, (v, j) in enumerate(zip(claimed, report.values)):
        over = np.abs(v - j) - NOISE * (1.0 + np.abs(j))
        i = int(np.argmax(over))
        if over[i] > args.tol:
            raise _Exit(4, f"values.csv mismatch: claimed V {v[i]:.17g} at (t={t}, node={i}) "
                           f"differs from the policy's value {j[i]:.17g} by more than tol "
                           f"{args.tol:.3e} plus rounding slack")
    print(f"certified: worst gap {report.worst_gap:.3e} <= tol {args.tol:.3e} "
          f"(probe resolution {report.probe_resolution})")
    return 0


def cmd_compare(args) -> int:
    with _phase(2, "config error"):
        config, model, dk = _prepare(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with _phase(3, "solver failure"):
        equilibrium = solve(model, dk, SolveOptions(u_tol=args.u_tol)).policy
        i0 = model.grids[0].size // 2
        precommitment, _ = ev.solve_precommitment(model, dk, 0, i0)
        naive = ev.solve_naive(model, dk)
    timings = {"compare": time.perf_counter() - t0}

    policies = (equilibrium, precommitment, naive)
    j1 = [ev.eval_objective_exact(model, dk, p, 0, i0) for p in policies]
    _write_csv(out / "compare.csv",
               ["t", "node", "state", "u_equilibrium", "u_precommitment", "u_naive",
                "J1_equilibrium", "J1_precommitment", "J1_naive"], "%d,%d" + ",%.17g" * 7,
               [(*cols, *j1) for cols in _node_blocks(model, *(p.controls for p in policies))])
    _manifest(out, config, args, timings, [out / "compare.csv"])
    differ = [np.flatnonzero(np.abs(ue - up) > np.max(np.diff(U, axis=1), initial=0.0))
              for ue, up, U in zip(equilibrium.controls, precommitment.controls, dk.controls)]
    first = next(((t, d[0]) for t, d in enumerate(differ) if d.size), None)
    if first is None:
        print("policies identical (equilibrium = precommitment at grid resolution)")
    else:
        print(f"policies differ: first at (t={first[0]}, node={first[1]})")
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
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the manifest only; nothing here is random")
        p.add_argument("--controls", type=int, default=None,
                       help="override the control grid node count M_u")

    def u_tol(p):
        p.add_argument("--u-tol", type=_tolerance(zero_ok=False), default=U_TOL, dest="u_tol",
                       help=f"refinement tolerance of the equilibrium solve (default {U_TOL:g}; "
                       f"the baselines always refine at {U_TOL:g})")

    p = sub.add_parser("solve", help="solve and write policy/value/diagnostic tables")
    common(p)
    u_tol(p)
    p.add_argument("--out", required=True, help="directory for the policy, value and "
                   "diagnostic tables and the manifest")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="deviation-test a solved policy directory")
    common(p)
    p.add_argument("--tol", type=_tolerance(zero_ok=True), default=1e-6,
                   help="certification tolerance on the deviation gap and on values.csv "
                        f"(which also allows {NOISE:.1e} (1 + |V|) of rounding)")
    p.add_argument("--solution", required=True, help="directory holding policy.csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="equilibrium vs precommitment vs naive")
    common(p)
    u_tol(p)
    p.add_argument("--out", required=True, help="directory for compare.csv and the manifest")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
