"""markeq benchmark: solve -> certify -> compare, end to end and per layer.

    python3 perfbench/run.py --workload mv_t5 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout.  Each repetition runs the
workload in a fresh ``python3 perfbench/workload.py`` process that
imports markeq from ``src/``, with ``BLAS_THREADS`` BLAS threads set in
that child's environment only.  Repetitions run one after another for
about ``--seconds`` (at least ``MIN_REPS``), and each metric is the median
over repetitions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus ``trace.overhead_s``, the
traced minus the untraced median ``total_s``.  The spans of the last
traced repetition are kept in ``.perfbench/<workload>.spans.jsonl``.

Every repetition checks its outputs against the fixed acceptance bounds;
each check is one attempted operation, and a repetition that crashes
counts as one failed operation.  The last line of standard output is
the JSON result; the lines before it give the environment, the accuracy
numbers, the gate outcomes, the median time of every stage (including
``compare_s`` and ``cli_s``, which are not end-to-end metrics) and every
per-repetition sample.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mv_t5", "cli_mix")
MIN_REPS = 3          # untraced repetitions per --trace 0 run
MIN_TRACED_CYCLES = 2  # untraced + traced pairs per --trace 1 run
BLAS_THREADS = 1       # at most nproc; one thread keeps shared-machine noise low
RUN_LIMIT_S = 150      # no repetition starts that could end after this


def git_revision():
    """HEAD's commit from .git, without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def repetition(args, traced, work, index, deadline):
    """Run one repetition in a child process; returns its result or None."""
    rep_dir = work / f"rep{index}{'t' if traced else ''}"
    result = rep_dir / "result.json"
    rep_dir.mkdir()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work", str(rep_dir / "work"), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(ROOT / ".perfbench" / f"{args.workload}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"repetition {index} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"repetition {index} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    return json.loads(result.read_text())


def end_to_end(rep):
    t = rep["times"]
    return {"setup_s": t["setup_s"], "solve_s": t["solve_s"], "certify_s": t["certify_s"],
            "total_s": t["total_s"], "peak_rss_mb": rep["peak_rss_mb"]}


def per_layer(rep):
    return {**rep["layers"], "cli.overhead_s": rep["cli_overhead_s"],
            "cli.bytes_written": rep["bytes_written"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "markeq" / "__init__.py").is_file():
        print(f"no markeq sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Compile the sources once, so that no repetition's setup_s pays for it.
    for d in (ROOT / "src" / "markeq", HERE):
        compileall.compile_dir(d, quiet=1)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = (False, True) if args.trace else (False,)
    min_cycles = MIN_TRACED_CYCLES if args.trace else MIN_REPS
    reps = {False: [], True: []}
    crashed = 0
    cycles = []
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench",
                                     prefix=f"{args.workload}-") as tmp:
        while True:
            t0 = time.monotonic()
            for traced in modes:
                rep = repetition(args, traced, Path(tmp), len(cycles), deadline)
                if rep is None:
                    crashed += 1
                else:
                    reps[traced].append(rep)
            cycles.append(time.monotonic() - t0)
            # Stop when another cycle would end further past --seconds than
            # stopping now falls short of it, so runs last --seconds on average.
            cycle = statistics.median(cycles)
            now = time.monotonic()
            if crashed or now + cycle > deadline or (
                    len(cycles) >= min_cycles and now + cycle / 2 - start > args.seconds):
                break

    done = reps[False] + reps[True]
    if not reps[False] or (args.trace and not reps[True]):
        print("no repetition completed", file=sys.stderr)
        return 1
    attempted = crashed + sum(len(r["gates"]) for r in done)
    failed = crashed + sum(not ok for r in done for ok in r["gates"].values())

    samples = [end_to_end(r) for r in reps[False]]
    if args.trace:
        untraced_total = statistics.median(s["total_s"] for s in samples)
        samples = [{**per_layer(r), "trace.overhead_s":
                    r["times"]["total_s"] - untraced_total} for r in reps[True]]
    metrics = {}
    for m in wanted:
        values = [s[m["name"]] for s in samples]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}

    env = {**done[0]["environment"], "git_revision": git_revision(),
           "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
           "repetitions": {"untraced": len(reps[False]), "traced": len(reps[True])},
           "note": "instances are fixed; the seed only picks the MV curvature-check "
                   "nodes and is recorded by the CLI. markeq's --workers does not "
                   "cap BLAS threads; the benchmark sets the thread count by "
                   "environment in its child processes."}
    worst_acc = {}
    for r in done:
        for k, v in r["accuracy"].items():
            worst_acc[k] = max(worst_acc.get(k, v), v)
    print("environment " + json.dumps(env))
    print("accuracy " + json.dumps(worst_acc))
    passed = {}
    for r in done:
        for k, ok in r["gates"].items():
            passed[k] = passed.get(k, 0) + ok
    print("gates passed " + json.dumps({k: f"{n}/{len(done)}" for k, n in passed.items()}))
    stage_names = sorted({k for r in reps[False] for k in r["times"]})
    print("stages " + json.dumps({k: statistics.median(r["times"].get(k, 0.0) for r in reps[False])
                                  for k in stage_names}))
    print("samples " + json.dumps({m["name"]: [s[m["name"]] for s in samples]
                                   for m in wanted}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
