#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload WORKLOAD [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; everything it reads and writes is
under the checkout root.  Workloads (see ``perfbench/NOTES.md``):

* ``figures-cold``  -- regenerate the paper's artefacts from an empty cache;
* ``figures-warm``  -- regenerate them from a cache that set-up filled;
* ``served-mix``    -- two closed-loop callers against ``repro serve``.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json``; every workload reports each of them, and a
run whose metrics differ from the manifest's names or units is not
correct.  With ``--trace 1`` the run is the traced run:
whatever the workload, it times the calls into every layer and reports
every per-layer metric, including the tracing overhead; the spans are
written to ``.perfbench_work/traces/`` when it ends.

Timings are host time rescaled by a calibration loop timed next to them
(``perfbench/calibrate.py``), because the machine's own speed drifts.

Every run checks its outputs byte for byte and re-simulates the pinned
sentinel cells; any mismatch makes ``correct`` false and the exit status 1.
A checkout without the program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from common import (
    DEFAULT_SEED,
    RUN,
    TRACES,
    ROOT,
    ProgramMissing,
    check_sentinels,
    load_pins,
    require_program,
)

WORKLOADS = ("figures-cold", "figures-warm", "served-mix")


def measure(workload: str, seed: int, seconds: float, pins: dict):
    """End-to-end metrics, tracing off."""
    import figures
    import served

    if workload == "served-mix":
        return served.run_mix(seed, seconds)
    run = figures.run_cold if workload == "figures-cold" else figures.run_warm
    metrics, tally, notes = run(seed, seconds, pins)
    return metrics, tally.attempted, tally.failed, tally.problems, notes


def measure_traced(workload: str, seed: int, seconds: float, pins: dict):
    """Every per-layer metric, from one traced pass over every layer."""
    import figures
    import served
    from spans import Tracer

    tracer = Tracer()
    metrics, tally, notes = figures.traced(tracer, seed, pins)
    served_metrics, attempted, failed, problems, served_notes = served.traced(
        tracer, seed, seconds)
    metrics.update(served_metrics)
    path = TRACES / f"{workload}-seed{seed}.json"
    tracer.dump(path, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
    notes = notes + served_notes + [f"spans written to {path}"]
    return (metrics, tally.attempted + attempted, tally.failed + failed,
            tally.problems + problems, notes)


def manifest_problems(metrics: dict, trace: int) -> list:
    """How ``metrics`` differ from the manifest's metrics for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    return [f"metric {name}: expected unit {expected.get(name)}, got {got.get(name)}"
            for name in sorted(set(expected) | set(got)) if expected.get(name) != got.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        pins = load_pins()
    except (ProgramMissing, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    run = measure_traced if args.trace else measure
    try:
        metrics, attempted, failed, problems, notes = run(
            args.workload, args.seed, args.seconds, pins)
        problems = problems + check_sentinels(pins) + manifest_problems(metrics, args.trace)
    finally:
        shutil.rmtree(RUN, ignore_errors=True)

    for line in notes:
        print(f"  {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}", file=sys.stderr)
    for problem in problems:
        print(f"  MISMATCH: {problem}", file=sys.stderr)
    print(f"  {args.workload} seed {args.seed}: {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
