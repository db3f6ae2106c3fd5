"""Replay the Gaussian tent-mass calls of a pipeline against a baseline copy of markeq.

For each instance this records every ``kernels._gaussian_tent_masses``
call that ``discretize``, ``solve`` and ``verify_equilibrium`` make (the
kernel's stored bands, every row ``node_rows`` builds and every row of a
search step's ``node_rows_and_slope`` come from it), then replays the recorded calls through this checkout's function and
through the same function of a second copy of the package.  That copy is
loaded from ``--baseline DIR`` (a checkout holding ``src/markeq``, for
example a ``git worktree`` of the parent commit) under the module name
``markeq_baseline``.  Each call is replayed in both copies with the
keywords it was made with (``banded=True`` from ``discretize``, whose
rows come back as bands; the ``keep`` hook, through which a search step
keeps its tent blocks for the slope, is passed on but not recorded),
except that the baseline gets only those its function accepts
(``inspect.signature``), so both copies do like work
wherever they can; every call must give ``np.array_equal`` dense rows
(``np.asarray`` of either form) and clamped masses in both copies, and
the first mismatch exits with status 1.

Both copies are timed interleaved in one process, call by call, the
order alternating each round, and the median over rounds of each batch
class's total time is printed per class: 1 row, 2-1000 rows, more
than 1000 rows.  Separate processes are too noisy to rank changes of a
few tens of percent on a shared machine.

Run it from the repository root (needs numpy; about a minute at the
default instances and rounds):

    PYTHONPATH=src python tools/replay_tent_masses.py --baseline ../parent
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import inspect
import sys
import time
from pathlib import Path

import numpy as np

from markeq import families, kernels, model as mq_model
from markeq.evaluate import verify_equilibrium
from markeq.solver import solve

INSTANCES = {
    "mv_t5": lambda: families.mv_model(families.MeanVarianceParams(T=5), n_x=201, n_u=41),
    "exp_utility": lambda: mq_model.build_model({"family": "exp_utility"}),
    "lq_21x11": lambda: families.lq_model(families.LQParams(), n_x=21, n_u=11),
}
CLASSES = (("1 row", 1, 1), ("2-1000 rows", 2, 1000), (">1000 rows", 1001, None))


def load_baseline(root: Path):
    """The ``kernels`` module of the markeq copy under ``root/src``, as ``markeq_baseline``."""
    init = root / "src" / "markeq" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no markeq package at {init.parent}")
    spec = importlib.util.spec_from_file_location(
        "markeq_baseline", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["markeq_baseline"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("markeq_baseline.kernels")


def record(build):
    """(grid, mean, std) of every tent-mass call of discretize, solve and verify."""
    calls = []
    real = kernels._gaussian_tent_masses

    def recording(grid, mean, std, keep=None, **form):
        calls.append(((grid.copy(), mean.copy(), std.copy()), form))
        return real(grid, mean, std, keep=keep, **form)

    kernels._gaussian_tent_masses = recording
    try:
        m = build()
        dk = kernels.discretize(m.kernel, m.grids, m.constraints)
        verify_equilibrium(m, dk, solve(m, dk))
    finally:
        kernels._gaussian_tent_masses = real
    return calls


def accepted(fn, form):
    """The keywords of ``form`` that ``fn`` takes."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in form.items() if k in params}


def replay(name, calls, base, rounds):
    """Check every call bit for bit, then print the per-class median times."""
    here = kernels._gaussian_tent_masses
    for c, (args, form) in enumerate(calls):
        (w1, k1), (w0, k0) = here(*args, **form), base(*args, **accepted(base, form))
        w1, w0 = np.asarray(w1), np.asarray(w0)  # dense rows of either form
        if not (np.array_equal(w1, w0) and np.array_equal(k1, k0)):
            diff = np.max(np.abs(w1 - w0), initial=0.0)
            print(f"{name}: call {c} ({args[1].size} rows) differs from the baseline "
                  f"by up to {diff:.3e}")
            return False
    print(f"{name}: {len(calls)} calls, all bit-identical to the baseline")
    print(f"  {'batch class':<12} {'calls':>5} {'rows':>7}  {'baseline ms':>11} "
          f"{'this ms':>9} {'ratio':>6}")
    for label, lo, hi in CLASSES:
        group = [(a, {here: f, base: accepted(base, f)}) for a, f in calls
                 if lo <= a[1].size and (hi is None or a[1].size <= hi)]
        if not group:
            print(f"  {label:<12} {0:>5} {0:>7}  {'-':>11} {'-':>9} {'-':>6}")
            continue
        times = {here: np.zeros(rounds), base: np.zeros(rounds)}
        for r in range(rounds):
            for args, forms in group:  # call by call, so both copies see the same cache and heap
                for fn in ((here, base) if r % 2 == 0 else (base, here)):
                    t0 = time.perf_counter()
                    fn(*args, **forms[fn])
                    times[fn][r] += time.perf_counter() - t0
        t_base, t_here = (1e3 * float(np.median(times[f])) for f in (base, here))
        print(f"  {label:<12} {len(group):>5} {sum(a[1].size for a, _ in group):>7}  "
              f"{t_base:>11.2f} {t_here:>9.2f} {t_here / t_base:>6.3f}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="checkout whose src/markeq is the baseline")
    parser.add_argument("--instance", action="append", choices=sorted(INSTANCES),
                        help="instance to record (repeatable; default mv_t5 and exp_utility)")
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per class")
    args = parser.parse_args(argv)
    base = load_baseline(args.baseline.resolve())._gaussian_tent_masses
    ok = True
    for name in args.instance or ("mv_t5", "exp_utility"):
        ok = replay(name, record(INSTANCES[name]), base, args.rounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
