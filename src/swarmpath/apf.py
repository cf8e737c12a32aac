"""Artificial potential field and the one constant-speed descent step.

Attraction pulls straight at the goal, repulsion pushes radially off every
obstacle whose surface is closer than its r_apf.  leader_step descends the
combined field at constant speed, so the field only sets the direction.  The
virtual leader runs it toward the scenario goal and every baseline drone runs
it toward its own goal slot.

Everything here runs once per step, so it works on plain floats: a point is
x, y, an obstacle is its Obstacle.as_tuple() row (cx, cy, radius, r_apf,
r_imp), a force is an (fx, fy) pair, and a descending agent is (x, y,
reached_goal).  total_force sums the field inline; attraction_force and
repulsion_force are the one-term references it is tested against.
"""

from __future__ import annotations

import math

from .world import SURFACE_EPS, ApfParams, ScenarioSpec
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import effective_obstacles  # noqa: F401

STALL_EPS = 1e-9     # below this force norm the field has no direction, N
NO_REPULSION = (0.0, 0.0)  # what repulsion_force returns beyond an obstacle's r_apf

Agent = tuple[float, float, bool]  # x, y, reached_goal


class SingularityError(ValueError):
    """A position on (or too close to) an obstacle center, direction undefined."""


def attraction_force(x: float, y: float, gx: float, gy: float,
                     k_att: float) -> tuple[float, float]:
    """Linear pull toward the goal (gx, gy), k_att * (goal - p)."""
    return (gx - x) * k_att, (gy - y) * k_att


def repulsion_force(x: float, y: float, obs: tuple, k_rep: float) -> tuple[float, float]:
    """Radial push away from one obstacle row, NO_REPULSION beyond its r_apf.

    Magnitude k_rep * (1/d_o - 1/d_safe) grows without bound toward the
    surface; d_o is the surface distance clamped at SURFACE_EPS so positions
    on or inside the body yield a huge finite push instead of dividing by
    zero.  SingularityError on the center itself, or so near it that the
    radial scale overflows.
    """
    cx, cy, radius, d_safe, _ = obs
    ox, oy = x - cx, y - cy
    dist = math.hypot(ox, oy)
    if dist == 0.0:
        raise SingularityError(f"position coincides with obstacle center ({cx}, {cy})")
    d_o = max(dist - radius, SURFACE_EPS)
    if d_o > d_safe:
        return NO_REPULSION
    magnitude = k_rep * (1.0 / d_o - 1.0 / d_safe)
    scale = magnitude / dist
    if not math.isfinite(scale):
        raise SingularityError(
            f"position {dist:g} m from obstacle center ({cx}, {cy}), direction undefined")
    return ox * scale, oy * scale


def total_force(x: float, y: float, gx: float, gy: float, obstacles: tuple[tuple, ...],
                params: ApfParams) -> tuple[float, float]:
    """Attraction plus the repulsions of obstacle rows at (x, y), summed in order.

    The hot loop of every descent step, so it writes attraction_force and
    repulsion_force out inline, with their operations, checks and messages in
    the same order; the tests check it against a sum of those helpers, bit
    for bit.  A row beyond its r_apf adds no term, not even +0.0, so listing
    it changes no bit of the sum (an attraction component that underflowed to
    -0.0 stays -0.0).
    """
    k_att, k_rep = params.k_att, params.k_rep
    fx, fy = (gx - x) * k_att, (gy - y) * k_att
    for cx, cy, radius, d_safe, _ in obstacles:
        ox, oy = x - cx, y - cy
        dist = math.hypot(ox, oy)
        if dist == 0.0:
            raise SingularityError(f"position coincides with obstacle center ({cx}, {cy})")
        d_o = dist - radius
        if d_o < SURFACE_EPS:  # max(dist - radius, SURFACE_EPS)
            d_o = SURFACE_EPS
        if d_o > d_safe:
            continue
        scale = k_rep * (1.0 / d_o - 1.0 / d_safe) / dist
        if not math.isfinite(scale):
            raise SingularityError(
                f"position {dist:g} m from obstacle center ({cx}, {cy}), direction undefined")
        fx += ox * scale
        fy += oy * scale
    return fx, fy


def leader_step(agent: Agent, gx: float, gy: float,
                spec: ScenarioSpec) -> tuple[Agent, bool]:
    """One constant-speed descent step toward (gx, gy); returns (new agent, stalled flag).

    The goal check runs before moving, so an agent already within
    goal_threshold latches reached_goal and stays put.  A vanishing field
    (norm < STALL_EPS) is reported as a stall, also without moving.
    """
    x, y, reached = agent
    if reached:
        return agent, False
    threshold = spec.apf.goal_threshold
    if math.hypot(x - gx, y - gy) <= threshold:
        return (x, y, True), False
    # Only the obstacles listed in this point's force cell: every one that acts
    # is among them, and total_force skips the rest without adding a term.
    fx, fy = total_force(x, y, gx, gy, spec.obstacle_index.force_rows(x, y), spec.apf)
    norm = math.hypot(fx, fy)
    if norm < STALL_EPS:
        return agent, True
    scale = spec.dt * spec.apf.leader_speed / norm
    x, y = x + fx * scale, y + fy * scale
    return (x, y, math.hypot(x - gx, y - gy) <= threshold), False
