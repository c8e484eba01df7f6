#!/usr/bin/env python3
"""Steadiness evidence: repeat each workload and report the spread.

    python3 perfbench/steadiness.py [--runs 10] [--workloads figures-cold,...]
                                    [--seconds S]

Runs ``perfbench/run.py`` ``--runs`` times per workload, with seeds 1, 2,
..., ``--runs``, and prints for every end-to-end metric its median, first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(Q3 - Q1) / median`` next to the metric's bound in
``BENCHMARK.json``, and each percentile's sample count.  A metric is
steady when its spread is below a third of its bound; ``setup_s`` is
judged on its median only.  With ``--runs 1`` it is the one command that
prints every workload's metrics.

Why the first attempt at this benchmark was too noisy, and what this
design changes, is in ``perfbench/NOTES.md`` ("Steadiness").
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

from common import ROOT
from run import WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> Tuple[dict, List[str]]:
    """The run's result, and its notes giving each percentile's sample count."""
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}")
    counts = [line.strip() for line in completed.stderr.splitlines() if " over n=" in line]
    return json.loads(completed.stdout.strip().splitlines()[-1]), counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            result, counts = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} run(s), seeds 1..{args.runs}, "
              f"{args.seconds:g} s each")
        print(f"  {'metric':18s} {'unit':5s} {'median':>12s} {'Q1':>12s} {'Q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            first = results[0]["metrics"][name]
            values = [result["metrics"][name]["value"] for result in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid,) * 3
            spread = (q3 - q1) / mid
            verdict = ""
            if name != "setup_s":
                verdict = "steady" if spread < bound / 3 else "NOISY"
                steady = steady and spread < bound / 3
            print(f"  {name:18s} {first['unit']:5s} {mid:12.5f} {q1:12.5f} {q3:12.5f}"
                  f" {spread:8.4f} {bound:>6} {verdict}")
        for line in counts:   # the work is fixed, so the last run's counts hold for all
            print(f"  {line}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
