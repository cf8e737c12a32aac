"""Staircase forest: where the link topology pays off.

Rows of thin posts form walls of increasing height.  Conventional per-drone
planning respects every post's full standoff field, so the outer drones climb
over each wall and the formation balloons.  The linked swarm keeps its shape:
the leader rides the symmetric corridor straight through while followers
slip past the posts at the much smaller link radius.
"""

import argparse
import pathlib

from swarmpath import (
    CONVENTIONAL_APF,
    SWARMPATH,
    compare,
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

    spec = read_scenario(SCENARIOS / "case2_forest.json")
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    report = compare(sp, base)

    print(f"completion: swarm {report['swarmpath']['completion_time_s']:.2f} s, "
          f"conventional {report['conventional_apf']['completion_time_s']:.2f} s "
          f"(ratio {report['time_ratio']:.3f})")
    print(f"min clearance (swarm): {min_obstacle_clearance(sp):.3f} m")
    spread = report["max_pairwise_distance_m"]
    print("max pairwise spread: "
          f"swarm {spread['swarmpath']:.2f} m, "
          f"conventional {spread['conventional_apf']:.2f} m")
    print("per-pair spread ratio (swarm / conventional):")
    for pair in report["pairs"]:
        a, b = pair["drones"]
        print(f"  drones ({a},{b}): "
              f"{pair['swarmpath_m']:.2f} / {pair['conventional_apf_m']:.2f} "
              f"= {pair['ratio']:.3f}")
    print("per-drone path length and cross-track error vs conventional:")
    for row in report["drones"]:
        print(f"  drone {row['drone']}: {row['swarmpath_path_m']:.2f} m vs "
              f"{row['conventional_apf_path_m']:.2f} m (ape {row['ape_percent']:.1f}%)")

    args.out.mkdir(parents=True, exist_ok=True)
    svg = args.out / "forest_run.svg"
    svg.write_text(render_compare_svg(sp, base))
    print(f"wrote {svg}")


if __name__ == "__main__":
    main()
