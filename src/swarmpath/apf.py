"""Artificial potential field and the one constant-speed descent step.

Attraction pulls straight at the goal, repulsion pushes radially off every
obstacle whose surface is closer than its r_apf.  leader_step descends the
combined field at constant speed, so the field only sets the direction.  The
virtual leader runs it toward the scenario goal and every baseline drone runs
it toward its own goal slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .world import SURFACE_EPS, Vec2, ZERO, Obstacle, ApfParams, ScenarioSpec
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import effective_obstacles  # noqa: F401

STALL_EPS = 1e-9     # below this force norm the field has no direction, N


class SingularityError(ValueError):
    """A position on (or too close to) an obstacle center, direction undefined."""


@dataclass(frozen=True)
class LeaderState:
    """Pose of a descending agent (the virtual leader or a baseline drone).

    reached_goal latches once set.
    """

    position: Vec2
    reached_goal: bool = False


def attraction_force(p: Vec2, goal: Vec2, k_att: float) -> Vec2:
    """Linear pull toward the goal, k_att * (goal - p)."""
    return (goal - p) * k_att


def repulsion_force(p: Vec2, obs: Obstacle, k_rep: float) -> Vec2:
    """Radial push away from one obstacle, zero beyond its r_apf.

    Magnitude k_rep * (1/d_o - 1/d_safe) grows without bound toward the
    surface; d_o is the surface distance clamped at SURFACE_EPS so positions
    on or inside the body yield a huge finite push instead of dividing by
    zero.  SingularityError on the center itself, or so near it that the
    radial scale overflows.
    """
    offset = p - obs.center
    dist = offset.norm()
    if dist == 0.0:
        raise SingularityError(
            f"position coincides with obstacle center ({obs.center.x}, {obs.center.y})")
    d_o = max(dist - obs.radius, SURFACE_EPS)
    d_safe = obs.r_apf
    if d_o > d_safe:
        return ZERO
    magnitude = k_rep * (1.0 / d_o - 1.0 / d_safe)
    scale = magnitude / dist
    if not math.isfinite(scale):
        raise SingularityError(
            f"position {dist:g} m from obstacle center ({obs.center.x}, {obs.center.y}), "
            "direction undefined")
    return offset * scale


def total_force(p: Vec2, goal: Vec2, obstacles: tuple[Obstacle, ...],
                params: ApfParams) -> Vec2:
    """Attraction plus the sum of all repulsions at p."""
    force = attraction_force(p, goal, params.k_att)
    for obs in obstacles:
        force = force + repulsion_force(p, obs, params.k_rep)
    return force


def leader_step(state: LeaderState, goal: Vec2,
                spec: ScenarioSpec) -> tuple[LeaderState, bool]:
    """One constant-speed descent step toward goal; returns (new state, stalled flag).

    The goal check runs before moving, so a state already within
    goal_threshold latches reached_goal and stays put.  A vanishing field
    (norm < STALL_EPS) is reported as a stall, also without moving.
    """
    if state.reached_goal:
        return state, False
    p = state.position
    if p.dist(goal) <= spec.apf.goal_threshold:
        return LeaderState(p, reached_goal=True), False
    # Only the obstacles that act: the others would add +0.0 to each component,
    # which changes nothing (goal - p is +0.0 where equal, so short of an
    # underflow no attraction component is -0.0).
    force = total_force(p, goal, spec.obstacle_index.acting(p), spec.apf)
    norm = force.norm()
    if norm < STALL_EPS:
        return state, True
    new_p = p + force * (spec.dt * spec.apf.leader_speed / norm)
    reached = new_p.dist(goal) <= spec.apf.goal_threshold
    return LeaderState(new_p, reached_goal=reached), False
