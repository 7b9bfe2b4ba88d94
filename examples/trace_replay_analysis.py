#!/usr/bin/env python
"""Trace-based fault forensics: where did the fault take the car?

Runs a golden (fault-free) and a faulted episode with trace recording,
verifies the faulted trajectory diverges only after the injection frame,
and draws both trajectories on an ASCII map of the town with violation
sites marked — the debugging workflow AVFI campaigns need when a metric
regression has to be explained.

Usage::

    python examples/trace_replay_analysis.py [--seed 3] [--fault-frame 60]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.agent import autopilot_agent_factory
from repro.core import TraceReader, compare_traces, run_episode, standard_scenarios
from repro.core.faults import ControlStuckAt, Trigger
from repro.sim.builders import SimulationBuilder
from repro.sim.town import SurfaceType, build_grid_town


def ascii_map(town, trajectories: dict[str, list[tuple[float, float]]],
              violations: list[tuple[float, float]], cols: int = 78, rows: int = 36) -> str:
    """Render the town + trajectories as ASCII art."""
    xmin, ymin, xmax, ymax = town.bounds

    def to_cell(x, y):
        c = int((x - xmin) / (xmax - xmin) * (cols - 1))
        r = int((ymax - y) / (ymax - ymin) * (rows - 1))
        return min(max(r, 0), rows - 1), min(max(c, 0), cols - 1)

    # Background: road layout sampled on the grid, flipped so north is up.
    xs = np.linspace(xmin, xmax, cols)
    ys = np.linspace(ymin, ymax, rows)
    classes = town.classify_grid(xs, ys)[::-1]
    grid = np.full((rows, cols), " ", dtype="<U1")
    grid[classes == SurfaceType.ROAD] = "."
    grid[classes == SurfaceType.CURB] = ","

    markers = {"golden": "o", "faulted": "#"}
    for name, path in trajectories.items():
        mark = markers.get(name, "*")
        for x, y in path:
            r, c = to_cell(x, y)
            grid[r, c] = mark
    for x, y in violations:
        r, c = to_cell(x, y)
        grid[r, c] = "X"
    legend = "legend: . road  , curb  o golden path  # faulted path  X violation"
    return "\n".join("".join(row) for row in grid) + "\n" + legend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--fault-frame", type=int, default=60)
    args = parser.parse_args()

    scenario = standard_scenarios(1, seed=args.seed)[0]
    builder = SimulationBuilder()
    tmp = Path(tempfile.mkdtemp(prefix="avfi-traces-"))

    print("Running golden episode (trace recorded)...")
    golden_rec = run_episode(
        builder, scenario, autopilot_agent_factory(),
        trace_path=tmp / "golden.jsonl",
    )
    print(f"  success={golden_rec.success}, {golden_rec.frames} frames")

    print(f"Running faulted episode (steer stuck at frame {args.fault_frame})...")
    faulted_rec = run_episode(
        builder, scenario, autopilot_agent_factory(),
        faults=[ControlStuckAt("steer", 1.0, trigger=Trigger(start_frame=args.fault_frame))],
        injector_name="stuck-steer",
        trace_path=tmp / "faulted.jsonl",
    )
    print(
        f"  success={faulted_rec.success}, {faulted_rec.n_violations} violations, "
        f"TTV={faulted_rec.time_to_violation_s():.2f}s"
    )

    golden = TraceReader(tmp / "golden.jsonl")
    faulted = TraceReader(tmp / "faulted.jsonl")
    divergence = compare_traces(golden, faulted)
    if divergence is None:
        print("Trajectories identical (fault never manifested).")
    else:
        print(
            f"First divergence at frame {divergence.frame} on '{divergence.field}' "
            f"(injection at frame {args.fault_frame}) -> "
            f"{'OK: after injection' if divergence.frame >= args.fault_frame else 'UNEXPECTED'}"
        )

    town = build_grid_town(scenario.town_config)
    print()
    print(
        ascii_map(
            town,
            {"golden": golden.trajectory(), "faulted": faulted.trajectory()},
            [tuple(v["position"]) for v in faulted_rec.violations],
        )
    )
    print(f"\nTraces kept in {tmp}")


if __name__ == "__main__":
    main()
