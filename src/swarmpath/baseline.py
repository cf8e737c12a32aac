"""Conventional potential-field swarm: every drone descends the field on its own.

Each drone is an apf agent (x, y, reached_goal) that runs apf.leader_step, the
virtual leader's own constant-speed descent, toward its own goal slot
goal + formation_offset, with no links and no coordination.  This is the
comparison controller for the adaptive-link swarm.
"""

from __future__ import annotations

from array import array

from .world import ScenarioSpec
from .apf import Agent, leader_step
# Unused here, but bench/bench.py's traced mode rebinds these module names.
from .world import effective_obstacles  # noqa: F401
from .apf import total_force  # noqa: F401


def initial_baseline_state(spec: ScenarioSpec) -> list[Agent]:
    """Every drone on its start slot, none at its goal yet."""
    sx, sy = spec.start.x, spec.start.y
    return [(sx + off.x, sy + off.y, False) for off in spec.formation_offsets]


def baseline_step(drones: list[Agent], spec: ScenarioSpec,
                  positions: array) -> tuple[bool, bool, float]:
    """Advance every drone in place and append its new x, y to positions.

    Returns (done, stalled, total): done when every drone has latched
    reached_goal, which after a step means it is within goal_threshold of its
    goal slot; stalled when no unfinished drone could move; and total the sum
    of every new coordinate, which is finite only if all of them are.
    """
    gx, gy = spec.goal.x, spec.goal.y
    append = positions.append
    moved = False
    unfinished = False
    total = 0.0
    for i, (drone, off) in enumerate(zip(drones, spec.formation_offsets)):
        new, stalled = leader_step(drone, gx + off.x, gy + off.y, spec)
        drones[i] = new
        x, y, reached = new
        append(x)
        append(y)
        total += x + y
        if not reached:
            unfinished = True
        if not stalled and (x != drone[0] or y != drone[1]):
            moved = True
    return not unfinished, unfinished and not moved, total
