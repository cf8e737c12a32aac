"""Sweeping the link parameters over the gate scenario.

Two shipped sweeps: stiffness k from its default up to 29 (paths lengthen
monotonically as the underdamped links start to ring), and damping d through
the critical value (the run at d = 12.6 is flagged; 2*sqrt(m*k) = 12.597).
"""

import argparse
import pathlib

from swarmpath.sweep import read_sweep, render_sweep_csv, run_sweep

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def show(name: str) -> None:
    result = run_sweep(read_sweep(SCENARIOS / name))
    print(f"== {name}")
    for point in result.runs:  # each point is its sweep.json entry, unrounded
        mark = "  <- critical" if point["critical"] else ""
        lengths = " ".join(f"{v:.4f}" for v in point["drone_path_lengths_m"])
        print(f"  {result.parameter}={point['value']:<6g} {point['outcome']:<10} [{lengths}]{mark}")
    print()
    print(render_sweep_csv(result))


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    show("sweep_k.json")
    show("sweep_d.json")


if __name__ == "__main__":
    main()
