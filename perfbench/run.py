"""Measured training-step and verify benchmark for orepa's two training routes.

Run from the repository root:

    python3 perfbench/run.py --workload train_paper56 --seed 1 --seconds 34 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
wraps the layer functions and reports the per-layer metrics instead. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric with
its unit, the analytic model beside the measured numbers, and the machine.
The library is imported from ./src next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    args = _args(argv, WORKLOADS)
    if not (SRC / "orepa" / "__init__.py").is_file():
        print(f"error: the orepa sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import machine
    import report

    workload = WORKLOADS[args.workload]
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine " + json.dumps(machine.facts(), sort_keys=True))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run, metrics, layer_peaks, counts = harness.run_traced(
                workload, args.seed, args.seconds, str(workdir))
            report.print_per_layer(run, metrics, layer_peaks, counts)
        else:
            run, metrics = harness.run_untraced(workload, args.seed, args.seconds, str(workdir))
            report.print_end_to_end(run, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    checks = run.checks
    print(f"# checks attempted={checks.attempted} failed={checks.failed}; steps per route "
          f"{len(run.samples['online']) * len(run.cases)}, verify ops {run.verify_ops}")
    for what in checks.first_failures:
        print(f"# FAILED: {what}")
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
