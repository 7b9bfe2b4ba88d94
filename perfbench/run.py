"""Campaign benchmark: one fault-injection workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload ilcnn-mux --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload (tracing
off); ``--trace 1`` prints its per-layer metrics from runs with timing
wrappers installed, plus the tracing overhead.  Either way a table goes
to standard output first and one JSON object is the last line.  Every
timed run's records are checked against serial reference records; the
command exits 1 when any differs or any episode fails, and 2 when the
program's sources are not beside this directory.

Workloads and the reasons for them are in ``workloads.py``; how a run
is timed is in ``bench.py``; the layer spans are in ``tracing.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of a benchmark run (IL-CNN weights, checkpoints, broker
#: state); inside the checkout, ignored by git.
WORKDIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR
    )
    metrics = result.per_layer() if args.trace else result.end_to_end()
    print(f"# {args.workload} seed={args.seed}")
    for run in result.runs:
        print(
            f"# run traced={int(run.traced)} episodes={run.attempted} "
            f"wall={run.wall_s:.3f}s first_record={run.first_record_s:.3f}s "
            f"cpu={run.cpu_s:.3f}s host={run.host:.3f} failed={run.failed}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:>28} {value:14.6g} {unit}")
    if not args.trace:
        # Reported through "attempted"/"failed" below: a metric that is
        # 0 on every healthy run cannot carry a relative bound.
        del metrics["failed_fraction"]
    correct = result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
