"""Threading a narrow gate.

The gate scenario sends the formation between two posts whose conventional
standoff radius would block a naive planner from the gap.  Followers that get
close to a post switch their impedance link from the leader to the post,
slide around it at a small controlled offset, and re-attach to the leader on
the far side.  The trace CSV mode column records every switch.
"""

import argparse
import pathlib

import numpy as np

from swarmpath import (
    CONVENTIONAL_APF,
    SWARMPATH,
    compare,
    gate_crossings,
    min_obstacle_clearance,
    read_scenario,
    run,
)
from swarmpath.plotsvg import render_compare_svg

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out"))
    args = parser.parse_args()

    spec = read_scenario(SCENARIOS / "case1_gate.json")
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    report = compare(sp, base)

    print(f"completion: swarm {report.sp_completion_time:.2f} s, "
          f"conventional {report.base_completion_time:.2f} s "
          f"(ratio {report.time_ratio:.3f})")
    print(f"min clearance (swarm): {min_obstacle_clearance(sp):.3f} m")

    gate = spec.gates[0]
    gap = gate.pole_a.center.dist(gate.pole_b.center)
    print(f"gate gap {gap:.2f} m; crossing fractions pole_a -> pole_b:")
    for i in range(sp.n_drones):
        fractions = ", ".join(f"{f:.3f}" for f in gate_crossings(sp, i, gate))
        print(f"  drone {i + 1}: {fractions}")

    switches = np.count_nonzero(sp.modes[1:] != sp.modes[:-1], axis=0)
    print(f"link switches per drone: {switches.tolist()}")

    args.out.mkdir(parents=True, exist_ok=True)
    svg = args.out / "gate_passage.svg"
    svg.write_text(render_compare_svg(sp, base))
    print(f"wrote {svg}")


if __name__ == "__main__":
    main()
