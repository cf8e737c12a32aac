"""Conventional potential-field swarm: every drone descends the field on its own.

Each drone runs apf.leader_step, the virtual leader's own constant-speed
descent, toward its own goal slot goal + formation_offset, with no links and
no coordination.  This is the comparison controller for the adaptive-link
swarm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .world import ScenarioSpec
from .apf import LeaderState, leader_step
# Unused here, but bench/bench.py's traced mode rebinds these module names.
from .world import effective_obstacles  # noqa: F401
from .apf import total_force  # noqa: F401


@dataclass(frozen=True)
class BaselineState:
    """All independent drones at one instant; drone i flies to goal + formation_offsets[i].

    t == step * dt.
    """

    drones: tuple[LeaderState, ...]
    t: float
    step: int


def baseline_step(state: BaselineState, spec: ScenarioSpec) -> tuple[BaselineState, bool]:
    """Advance every drone; stalled means no unfinished drone could move."""
    drones = []
    moved = False
    unfinished = False
    for drone, offset in zip(state.drones, spec.formation_offsets):
        new_drone, stalled = leader_step(drone, spec.goal + offset, spec)
        drones.append(new_drone)
        if not new_drone.reached_goal:
            unfinished = True
        if not stalled and new_drone.position != drone.position:
            moved = True
    step = state.step + 1
    new_state = BaselineState(drones=tuple(drones), t=step * spec.dt, step=step)
    return new_state, (unfinished and not moved)
