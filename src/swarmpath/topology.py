"""Adaptive link topology: followers re-anchor their impedance link near obstacles.

Each drone normally tracks a fixed offset from the virtual leader.  When the
nearest obstacle surface comes closer than that obstacle's r_imp, the drone's
link switches to the obstacle and its formation slot gains a radial deflection
term, which carries it around the body.  The link releases back to the leader
once the surface distance exceeds r_imp * (1 + hysteresis); a drone never hands
over directly from one obstacle to another, it must release first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .world import (Vec2, ZERO, Obstacle, ObstacleIndex, TopologyParams, ScenarioSpec,
                    effective_obstacles)
from .apf import LeaderState, SingularityError, leader_step
from .impedance import LinkDynamicState, link_step

MEAN_SPEED_ALPHA = 0.05  # exponential moving average weight for drone speed


@dataclass(frozen=True)
class LinkMode:
    """Anchor of a drone's impedance link: the leader or one obstacle."""

    obstacle_index: int | None = None  # index into effective_obstacles, None = leader

    @classmethod
    def leader(cls) -> "LinkMode":
        return cls(None)

    @classmethod
    def obstacle(cls, index: int) -> "LinkMode":
        if index < 0:
            raise ValueError(f"obstacle index must be >= 0, got {index}")
        return cls(index)

    @property
    def leader_linked(self) -> bool:
        return self.obstacle_index is None

    @property
    def code(self) -> int:
        """The trace's mode code: -1 for the leader, else the obstacle index."""
        return -1 if self.obstacle_index is None else self.obstacle_index


@dataclass(frozen=True)
class DroneState:
    """One follower: id is its index into formation_offsets."""

    id: int
    position: Vec2
    link: LinkDynamicState = LinkDynamicState()
    mode: LinkMode = LinkMode.leader()
    mean_speed: float = 0.0  # smoothed ground speed, m/s


@dataclass(frozen=True)
class SwarmState:
    """Full leader-plus-followers state at one instant; t == step * dt."""

    leader: LeaderState
    drones: tuple[DroneState, ...]
    t: float
    step: int


def nearest_obstacle(p: Vec2, obstacles: tuple[Obstacle, ...]) -> tuple[int, float] | None:
    """(index, surface distance) of the closest obstacle, None if there are none.

    Ties go to the lower index so the result is deterministic.
    """
    best: tuple[int, float] | None = None
    for i, obs in enumerate(obstacles):
        dist = obs.surface_distance(p)
        if best is None or dist < best[1]:
            best = (i, dist)
    return best


def update_link_mode(drone: DroneState, index: ObstacleIndex,
                     params: TopologyParams) -> LinkMode:
    """Apply the acquire/release rules to one drone for this step.

    Leader-linked: acquire the nearest obstacle if its surface is closer than
    its r_imp.  Obstacle-linked: keep the link until the surface distance
    exceeds r_imp * (1 + hysteresis), then release to the leader; a new
    obstacle can only be acquired on a later step.
    """
    if drone.mode.leader_linked:
        # The cell lists every obstacle whose surface is within R = max r_imp
        # of the drone.  If any obstacle can be acquired, its surface is within
        # its r_imp <= R, so it is listed and is the global nearest.  Otherwise
        # the nearest listed one is the global nearest or at least R away,
        # which is >= its own r_imp, so nothing is acquired either way.  The
        # list is in index order, so ties still go to the lowest index.
        ids, candidates = index.candidates(drone.position)
        near = nearest_obstacle(drone.position, candidates)
        if near is None:
            return drone.mode
        k, dist = near
        if dist < candidates[k].r_imp:
            return LinkMode.obstacle(ids[k])
        return drone.mode
    obs = index.obstacles[drone.mode.obstacle_index]
    if obs.surface_distance(drone.position) > obs.r_imp * (1.0 + params.hysteresis):
        return LinkMode.leader()
    return drone.mode


def deflection_offset(drone: DroneState, obs: Obstacle,
                      params: TopologyParams) -> Vec2:
    """Radial push-out added to an obstacle-linked drone's formation slot.

    Magnitude k_impF * (1 + velocity_gain * mean_speed) * r_imp, directed from
    the obstacle center through the drone.
    """
    offset = drone.position - obs.center
    dist = offset.norm()
    magnitude = params.k_impF * (1.0 + params.velocity_gain * drone.mean_speed) * obs.r_imp
    scale = magnitude / dist if dist else math.inf
    if not math.isfinite(scale):
        raise SingularityError(
            f"drone {drone.id} is {dist:g} m from obstacle center "
            f"({obs.center.x}, {obs.center.y}), direction undefined")
    return offset * scale


def desired_position(drone: DroneState, leader: LeaderState,
                     spec: ScenarioSpec) -> Vec2:
    """Formation slot of a drone: leader plus offset, plus deflection if linked."""
    base = leader.position + spec.formation_offsets[drone.id]
    if drone.mode.leader_linked:
        return base
    obs = effective_obstacles(spec)[drone.mode.obstacle_index]
    return base + deflection_offset(drone, obs, spec.topology)


def swarm_step(state: SwarmState, spec: ScenarioSpec) -> tuple[SwarmState, bool]:
    """Advance leader and all followers by one dt; returns (new state, stalled flag).

    stalled is the leader's: its field vanished, so it held position.
    Order: the leader moves first (a stalled or finished leader just holds
    position, followers keep settling), then each drone refreshes its link
    mode, integrates its link against the slot it was tracking, and re-anchors
    the integrated deviation onto the slot derived from the new leader pose.
    Anchoring this way makes pure transport exact: a drone sitting on its slot
    with no deviation translates with the leader instead of lagging it.
    """
    new_leader, stalled = leader_step(state.leader, spec.goal, spec)
    dt = spec.dt
    drones = []
    for drone in state.drones:
        mode = update_link_mode(drone, spec.obstacle_index, spec.topology)
        tracked = drone if mode is drone.mode else DroneState(
            drone.id, drone.position, drone.link, mode, drone.mean_speed)
        slot_old = desired_position(tracked, state.leader, spec)
        deviation = LinkDynamicState(drone.position - slot_old, drone.link.delta_v)
        link = link_step(deviation, ZERO, spec.impedance, dt)
        slot_new = desired_position(tracked, new_leader, spec)
        position = slot_new + link.delta_x
        speed = position.dist(drone.position) / dt
        mean_speed = (1.0 - MEAN_SPEED_ALPHA) * drone.mean_speed + MEAN_SPEED_ALPHA * speed
        drones.append(DroneState(drone.id, position, link, mode, mean_speed))
    step = state.step + 1
    return SwarmState(new_leader, tuple(drones), t=step * dt, step=step), stalled
