"""Conventional potential-field swarm: every drone descends the field on its own.

Each drone is an apf agent (x, y, reached_goal) that runs apf.leader_step, the
virtual leader's own constant-speed descent, toward its own goal slot
goal + formation_offset, with no links and no coordination.  This is the
comparison controller for the adaptive-link swarm.
"""

from __future__ import annotations

from .world import ScenarioSpec
from .apf import Agent, leader_step
# Unused here, but bench/bench.py's traced mode rebinds these module names.
from .world import effective_obstacles  # noqa: F401
from .apf import total_force  # noqa: F401



def initial_baseline_state(spec: ScenarioSpec) -> tuple[Agent, ...]:
    """Every drone on its start slot, none at its goal yet."""
    sx, sy = spec.start.x, spec.start.y
    return tuple((sx + off.x, sy + off.y, False) for off in spec.formation_offsets)


def baseline_step(drones: tuple[Agent, ...], spec: ScenarioSpec) -> tuple[tuple[Agent, ...], bool]:
    """Advance every drone; stalled means no unfinished drone could move."""
    gx, gy = spec.goal.x, spec.goal.y
    out = []
    moved = False
    unfinished = False
    for drone, off in zip(drones, spec.formation_offsets):
        new, stalled = leader_step(drone, gx + off.x, gy + off.y, spec)
        out.append(new)
        if not new[2]:
            unfinished = True
        if not stalled and (new[0] != drone[0] or new[1] != drone[1]):
            moved = True
    return tuple(out), (unfinished and not moved)
