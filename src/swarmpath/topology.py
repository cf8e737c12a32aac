"""Adaptive link topology: followers re-anchor their impedance link near obstacles.

Each drone normally tracks a fixed offset from the virtual leader.  When the
nearest obstacle surface comes closer than that obstacle's r_imp, the drone's
link switches to the obstacle and its formation slot gains a radial deflection
term, which carries it around the body.  The link releases back to the leader
once the surface distance exceeds r_imp * (1 + hysteresis); a drone never hands
over directly from one obstacle to another, it must release first.

The state of a run is its drones, a list that swarm_step updates in place.
A drone is a tuple of plain floats and ints (x, y, vx, vy, mode, mean_speed):
its position, its link velocity, its link mode (LEADER or the index of the
obstacle it is linked to, the trace's mode code) and its smoothed ground
speed.  Obstacles are ObstacleIndex rows (cx, cy, radius, r_apf, r_imp).

The virtual leader is not part of that state.  It reads no drone, so its path
is fixed by the leader inputs of a spec (start, goal, obstacles, gates, apf,
dt, max_steps); a LeaderTrack computes that path once, row by row as runs reach
each step, and every run with the same leader inputs reads its rows.
"""

from __future__ import annotations

import math
from array import array

from .world import ObstacleIndex, TopologyParams, ScenarioSpec
from .apf import Agent, SingularityError, leader_step
from .impedance import Coefficients, link_step
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import effective_obstacles  # noqa: F401

MEAN_SPEED_ALPHA = 0.05  # exponential moving average weight for drone speed
LEADER = -1  # mode of a drone linked to the leader; otherwise an obstacle index

Drone = tuple[float, float, float, float, int, float]  # x, y, vx, vy, mode, mean_speed


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


def leader_inputs(spec: ScenarioSpec) -> tuple:
    """Every field of spec that the leader's path depends on."""
    return (spec.start, spec.goal, spec.obstacles, spec.gates, spec.apf, spec.dt,
            spec.max_steps)


class LeaderTrack:
    """The virtual leader's path for one set of leader inputs, grown on demand.

    xy holds the rows grown so far, flat: the leader's (x, y) after step n
    is xy[2n], xy[2n + 1], and row 0 is the start.  row(n) grows xy through
    step n the first time any run asks for it, so a run that has read row n
    reads every earlier row straight from xy.  Growing runs leader_step until
    the path's fixed point: once the leader latches reached_goal or stalls,
    leader_step would return it unchanged forever, so every later row is a
    copy of the last one.  stall_step is the first step at which the leader
    stalled, None while it has not.  A step whose leader_step raises, or
    whose row is not finite, is not stored, so every run that reaches it
    raises again.  Whoever builds a track chooses the runs that share it.
    """

    def __init__(self, spec: ScenarioSpec):
        self.inputs = leader_inputs(spec)
        self._spec = spec
        self.xy = array("d", (spec.start.x, spec.start.y))
        self.stall_step: int | None = None
        self._agent: Agent = (spec.start.x, spec.start.y, False)
        self._settled = False

    def row(self, step: int) -> tuple[float, float]:
        """The leader's (x, y) after step, growing xy through it first."""
        xy = self.xy
        while 2 * step >= len(xy):
            if self._settled:
                xy.append(xy[-2])
                xy.append(xy[-1])
                continue
            spec = self._spec
            agent, stalled = leader_step(self._agent, spec.goal.x, spec.goal.y, spec)
            x, y, reached = agent
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SingularityError("the state overflowed to a non-finite value")
            if stalled:
                self.stall_step = len(xy) // 2
            self._agent = agent
            self._settled = reached or stalled
            xy.append(x)
            xy.append(y)
        return xy[2 * step], xy[2 * step + 1]

    def stalled(self, step: int) -> bool:
        """True when the leader stalled at step; a stall lasts forever."""
        return self.stall_step is not None and step >= self.stall_step


def initial_swarm_state(spec: ScenarioSpec) -> list[Drone]:
    """Drones at rest on the start formation, every link on the leader."""
    sx, sy = spec.start.x, spec.start.y
    return [(sx + off.x, sy + off.y, 0.0, 0.0, LEADER, 0.0)
            for off in spec.formation_offsets]


def swarm_step(drones: list[Drone], step: int, track: LeaderTrack, spec: ScenarioSpec,
               coefficients: Coefficients, offsets: tuple[tuple[float, float], ...],
               positions: array, modes: array) -> tuple[bool, bool, float]:
    """Advance every follower to step, in place; the leader's rows come from track.

    coefficients is link_coefficients(spec.impedance, spec.dt) and offsets
    the (x, y) pairs of spec.formation_offsets, both fixed for a run.
    Each drone refreshes its link mode, integrates its link against the slot
    it was tracking (on the leader's row step - 1), and re-anchors the
    integrated deviation onto the slot derived from the leader's row step.
    Anchoring this way makes pure transport exact: a drone sitting on its slot
    with no deviation translates with the leader instead of lagging it.  The
    slot's deflection depends on the drone alone, so both slots share it.

    The same pass appends each drone's new x, y to positions and its mode to
    modes, the trace's flat row buffers.  Returns (done, stalled, total):
    done when every drone is within goal_threshold of its goal slot, stalled
    when the leader stalled at step, and total the sum of every new number,
    which is finite only if all of them are.
    """
    nlx, nly = track.row(step)
    xy = track.xy
    lx, ly = xy[2 * step - 2], xy[2 * step - 1]
    dt = spec.dt
    index, params = spec.obstacle_index, spec.topology
    gx, gy, threshold = spec.goal.x, spec.goal.y, spec.apf.goal_threshold
    append_position, append_mode = positions.append, modes.append
    done = True
    total = 0.0
    for i, ((x, y, vx, vy, mode, mean_speed), (ox, oy)) in enumerate(zip(drones, offsets)):
        mode = _update_link_mode(x, y, mode, index, params)
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
        drones[i] = (new_x, new_y, vx, vy, mode, mean_speed)
        append_position(new_x)
        append_position(new_y)
        append_mode(mode)
        total += new_x + new_y + vx + vy + mean_speed
        if done and not math.hypot(new_x - (gx + ox), new_y - (gy + oy)) <= threshold:
            done = False
    return done, track.stalled(step), total
