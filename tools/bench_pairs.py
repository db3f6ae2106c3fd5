"""Run alternating benchmark pairs of two checkouts and judge a claimed gain.

Each pair runs ``python3 perfbench/run.py --workload W --seed K --seconds S
--trace 0`` once in the parent checkout and once in the change's, the
first side alternating from pair to pair (the parent first in pair 0).
Each run is the benchmark's own: the metric values it reports are its
medians over repetitions.  Per end-to-end metric of the parent's
``BENCHMARK.json``, the summary gives each side's median and quartiles
over the pairs, the change's wins (pairs where it is better, ties
counting for neither) and whether a gain may be claimed: the change wins
at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range.

Run it from anywhere (needs numpy; each run takes about ``--seconds``):

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload cli_mix --pairs 10 --seconds 60 --seed 7
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9  # wins needed, as a share of all pairs run


def run_once(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """The last-line JSON result of one benchmark run in checkout ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark run in {root} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(pairs, better) -> list:
    """One row per metric of ``better`` ({name: "lower" | "higher"}) over ``pairs``.

    ``pairs`` holds (parent, change) dicts of metric values, one per pair.
    A row is (name, parent (q1, median, q3), change (q1, median, q3), wins,
    claim): wins counts the pairs where the change is strictly better, and
    claim holds when wins >= ``WIN_SHARE`` of the pairs and the change's
    median is better by more than the parent's interquartile range.
    """
    rows = []
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        par = np.array([p[name] for p, _ in pairs], dtype=float)
        chg = np.array([c[name] for _, c in pairs], dtype=float)
        qp, qc = (tuple(np.percentile(x, (25, 50, 75)).tolist()) for x in (par, chg))
        wins = int(np.sum(sign * (par - chg) > 0))
        claim = wins >= WIN_SHARE * len(pairs) and sign * (qp[1] - qc[1]) > qp[2] - qp[0]
        rows.append((name, qp, qc, wins, bool(claim)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="length of each run (default 60, the benchmark's)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed of every run")
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, failed = [], 0
    for i in range(args.pairs):
        got = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(sides[side], args.workload, args.seconds, args.seed)
            failed += not result["correct"]
            got[side] = {k: v["value"] for k, v in result["metrics"].items()}
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i}: " + json.dumps(got), flush=True)
    print(f"{args.workload}, {len(pairs)} pairs, {failed} runs with a failed gate")
    print(f"  {'metric':<12} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'wins':>5}  claim")
    for name, qp, qc, wins, claim in summarize(pairs, better):
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (qp, qc)]
        print(f"  {name:<12} {cells[0]:>36} {cells[1]:>36} {wins:>5}  {'yes' if claim else 'no'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
