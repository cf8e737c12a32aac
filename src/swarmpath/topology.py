"""Adaptive link topology: followers re-anchor their impedance link near obstacles.

Each drone normally tracks a fixed offset from the virtual leader.  When the
nearest obstacle surface comes closer than that obstacle's r_imp, the drone's
link switches to the obstacle and its formation slot gains a radial deflection
term, which carries it around the body.  The link releases back to the leader
once the surface distance exceeds r_imp * (1 + hysteresis); a drone never hands
over directly from one obstacle to another, it must release first.

The state is plain floats and ints.  A drone is (x, y, vx, vy, mode,
mean_speed): its position, its link velocity, its link mode (LEADER or the
index of the obstacle it is linked to, the trace's mode code) and its smoothed
ground speed.  The leader is an apf agent (x, y, reached_goal).  Obstacles are
ObstacleIndex rows (cx, cy, radius, r_apf, r_imp).
"""

from __future__ import annotations

import math

from .world import ObstacleIndex, TopologyParams, ScenarioSpec
from .apf import Agent, SingularityError, leader_step
from .impedance import link_coefficients, link_step
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import effective_obstacles  # noqa: F401

MEAN_SPEED_ALPHA = 0.05  # exponential moving average weight for drone speed
LEADER = -1  # mode of a drone linked to the leader; otherwise an obstacle index

Drone = tuple[float, float, float, float, int, float]  # x, y, vx, vy, mode, mean_speed
Swarm = tuple[Agent, tuple[Drone, ...]]  # (leader, drones)


def nearest_obstacle(x: float, y: float,
                     obstacles: tuple[tuple, ...]) -> tuple[int, float] | None:
    """(index, surface distance) of the closest obstacle row, None if there are none.

    Ties go to the lower index so the result is deterministic.
    """
    best: tuple[int, float] | None = None
    for i, (cx, cy, radius, _, _) in enumerate(obstacles):
        dist = math.hypot(x - cx, y - cy) - radius
        if best is None or dist < best[1]:
            best = (i, dist)
    return best


def update_link_mode(x: float, y: float, mode: int, index: ObstacleIndex,
                     params: TopologyParams) -> int:
    """Apply the acquire/release rules to one drone at (x, y) for this step.

    Leader-linked: acquire the nearest obstacle if its surface is closer than
    its r_imp.  Obstacle-linked: keep the link until the surface distance
    exceeds r_imp * (1 + hysteresis), then release to the leader; a new
    obstacle can only be acquired on a later step.
    """
    if mode == LEADER:
        # The cell lists every obstacle whose surface is within R = max r_imp
        # of the drone.  If any obstacle can be acquired, its surface is within
        # its r_imp <= R, so it is listed and is the global nearest.  Otherwise
        # the nearest listed one is the global nearest or at least R away,
        # which is >= its own r_imp, so nothing is acquired either way.  The
        # list is in index order, so ties still go to the lowest index.
        ids, candidates = index.candidates(x, y)
        near = nearest_obstacle(x, y, candidates)
        if near is not None and near[1] < candidates[near[0]][4]:
            return ids[near[0]]
        return LEADER
    cx, cy, radius, _, r_imp = index.rows[mode]
    if math.hypot(x - cx, y - cy) - radius > r_imp * (1.0 + params.hysteresis):
        return LEADER
    return mode


def deflection_offset(x: float, y: float, mean_speed: float, obs: tuple,
                      params: TopologyParams) -> tuple[float, float]:
    """Radial push-out added to the formation slot of a drone linked to obs.

    Magnitude k_impF * (1 + velocity_gain * mean_speed) * r_imp, directed from
    the obstacle center through the drone at (x, y).
    """
    cx, cy, _, _, r_imp = obs
    ox, oy = x - cx, y - cy
    dist = math.hypot(ox, oy)
    magnitude = params.k_impF * (1.0 + params.velocity_gain * mean_speed) * r_imp
    scale = magnitude / dist if dist else math.inf
    if not math.isfinite(scale):
        raise SingularityError(
            f"{dist:g} m from obstacle center ({cx}, {cy}), direction undefined")
    return ox * scale, oy * scale


# swarm_step calls update_link_mode under a private name: bench/bench.py's
# traced mode rebinds the public name with an observer that reads args[0].mode.
_update_link_mode = update_link_mode


def initial_swarm_state(spec: ScenarioSpec) -> Swarm:
    """Leader and drones at rest on the start formation, every link on the leader."""
    sx, sy = spec.start.x, spec.start.y
    drones = tuple((sx + off.x, sy + off.y, 0.0, 0.0, LEADER, 0.0)
                   for off in spec.formation_offsets)
    return (sx, sy, False), drones


def swarm_step(state: Swarm, spec: ScenarioSpec) -> tuple[Swarm, bool]:
    """Advance leader and all followers by one dt; returns (new state, stalled flag).

    stalled is the leader's: its field vanished, so it held position.
    Order: the leader moves first (a stalled or finished leader just holds
    position, followers keep settling), then each drone refreshes its link
    mode, integrates its link against the slot it was tracking, and re-anchors
    the integrated deviation onto the slot derived from the new leader pose.
    Anchoring this way makes pure transport exact: a drone sitting on its slot
    with no deviation translates with the leader instead of lagging it.  The
    slot's deflection depends on the drone alone, so both slots share it.
    """
    leader, drones = state
    new_leader, stalled = leader_step(leader, spec.goal.x, spec.goal.y, spec)
    lx, ly, _ = leader
    nlx, nly, _ = new_leader
    dt = spec.dt
    index, params = spec.obstacle_index, spec.topology
    coefficients = link_coefficients(spec.impedance, dt)
    out = []
    for i, ((x, y, vx, vy, mode, mean_speed), off) in enumerate(
            zip(drones, spec.formation_offsets)):
        mode = _update_link_mode(x, y, mode, index, params)
        ox, oy = off.x, off.y
        slot_x, slot_y = lx + ox, ly + oy
        new_x, new_y = nlx + ox, nly + oy
        if mode != LEADER:
            try:
                ex, ey = deflection_offset(x, y, mean_speed, index.rows[mode], params)
            except SingularityError as exc:  # drones are numbered from 1, as in files
                raise SingularityError(f"drone {i + 1}: {exc}") from None
            slot_x, slot_y = slot_x + ex, slot_y + ey
            new_x, new_y = new_x + ex, new_y + ey
        dx, dy, vx, vy = link_step(x - slot_x, y - slot_y, vx, vy, 0.0, 0.0, coefficients)
        new_x, new_y = new_x + dx, new_y + dy
        speed = math.hypot(new_x - x, new_y - y) / dt
        mean_speed = (1.0 - MEAN_SPEED_ALPHA) * mean_speed + MEAN_SPEED_ALPHA * speed
        out.append((new_x, new_y, vx, vy, mode, mean_speed))
    return (new_leader, tuple(out)), stalled
