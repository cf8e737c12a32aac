"""Rigid formation transport in free space.

With no obstacles the follower links never deviate: the whole formation
translates with the virtual leader and the swarm matches four independent
planners exactly.  This is the baseline sanity story for the link model.
"""

import argparse
import pathlib

import numpy as np

from swarmpath import (
    CONVENTIONAL_APF,
    SWARMPATH,
    ScenarioSpec,
    Vec2,
    drone_path_length,
    run,
)
from swarmpath.plotsvg import render_trace_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out"))
    args = parser.parse_args()

    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(5.0, 0.0), max_steps=1500)
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)

    print(f"outcome: swarm={sp.outcome}  independent={base.outcome}")
    print(f"frames:  swarm={sp.n_frames}  independent={base.n_frames}")
    for i in range(sp.n_drones):
        gap = np.linalg.norm(sp.drone_positions(i) - base.drone_positions(i), axis=1).max()
        length = drone_path_length(sp, i)
        print(f"drone {i + 1}: path {length:.3f} m, "
              f"max gap to independent planner {gap:.2e} m")

    offsets = np.array([o.as_tuple() for o in spec.formation_offsets])
    errors = np.linalg.norm(sp.positions[-1] - sp.leader[-1] - offsets, axis=1)
    print("final formation errors: " + ", ".join(f"{e:.1e} m" for e in errors))

    args.out.mkdir(parents=True, exist_ok=True)
    svg = args.out / "formation_transport.svg"
    svg.write_text(render_trace_svg(sp, title="formation transport, free space"))
    print(f"wrote {svg}")


if __name__ == "__main__":
    main()
