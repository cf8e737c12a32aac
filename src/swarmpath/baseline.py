"""Conventional potential-field swarm: every drone descends the field on its own.

Each drone runs the virtual leader's own constant-speed descent from its
start slot start + formation_offset toward its goal slot goal +
formation_offset, with no links and no coordination, and reads no other
drone.  So each drone is a topology.LeaderTrack for a shifted start and goal,
all sharing the scenario's obstacle index, built alone by baseline_step; the
simulator composes the run's end from the tracks.  This is the comparison
controller for the adaptive-link swarm.
"""

from __future__ import annotations

from .world import ScenarioSpec, Vec2
from .topology import LeaderTrack
# Unused here, but bench/bench.py's traced mode rebinds these module names.
from .world import effective_obstacles  # noqa: F401
from .apf import total_force  # noqa: F401


def baseline_step(spec: ScenarioSpec, offset: Vec2) -> LeaderTrack:
    """The track of the drone at offset, descended through step max_steps.

    It stops early at the path's fixed point or its first fault; see
    LeaderTrack.
    """
    sx, sy, gx, gy = spec.start.x, spec.start.y, spec.goal.x, spec.goal.y
    return LeaderTrack(spec, (sx + offset.x, sy + offset.y), (gx + offset.x, gy + offset.y))
