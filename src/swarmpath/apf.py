"""Artificial potential field and the one constant-speed descent.

Attraction pulls straight at the goal, repulsion pushes radially off every
obstacle whose surface is closer than its r_apf.  A descent steps down the
combined field at constant speed, so the field only sets the direction.  The
virtual leader descends toward the scenario goal and every baseline drone
toward its own goal slot; neither reads any other agent, so each path is
grown alone, by descend, one loop over its steps with its state in locals.
The loop looks its force cell up only when the path enters another cell, and
tests the goal along x before it takes the goal's hypot.

Everything here works on plain floats: a point is x, y, an obstacle is its
Obstacle.as_tuple() row (cx, cy, radius, r_apf, r_imp), a force is an
(fx, fy) pair, and a descending agent is (x, y, reached_goal).
repulsion_force is the one repulsion term and total_force sums the field
from it; leader_step takes one step with total_force over its force_cells
rows.  These are the references: descend writes leader_step and the field's
sum out inline, and the tests check it against them bit for bit.
"""

from __future__ import annotations

import math
from array import array

from .world import SURFACE_EPS, ApfParams, ScenarioSpec
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import effective_obstacles  # noqa: F401

STALL_EPS = 1e-9     # below this force norm the field has no direction, N
NO_REPULSION = (0.0, 0.0)  # what repulsion_force returns beyond an obstacle's r_apf
AT_CENTER = "position coincides with obstacle center ({}, {})"
NEAR_CENTER = "position {:g} m from obstacle center ({}, {}), direction undefined"
NON_FINITE = "the state overflowed to a non-finite value"
# How descend stops: on the row asked for; at the path's fixed point, whose
# last row every later step repeats (goal latched, no field, or a step that
# left x and y bit for bit); or on a fault, ranked in the order a step meets
# them (a repulsion with no direction, then a position that is not finite).
DESCENDING, LATCHED, NO_FIELD, FIXED, SINGULAR, OVERFLOW = range(6)


class SingularityError(ValueError):
    """A position on (or too close to) an obstacle center, direction undefined."""


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
        raise SingularityError(AT_CENTER.format(cx, cy))
    d_o = max(dist - radius, SURFACE_EPS)
    if d_o > d_safe:
        return NO_REPULSION
    magnitude = k_rep * (1.0 / d_o - 1.0 / d_safe)
    scale = magnitude / dist
    if not math.isfinite(scale):
        raise SingularityError(NEAR_CENTER.format(dist, cx, cy))
    return ox * scale, oy * scale


def total_force(x: float, y: float, gx: float, gy: float, obstacles: tuple[tuple, ...],
                params: ApfParams) -> tuple[float, float]:
    """Attraction plus the repulsion_force of each obstacle row at (x, y), summed in order.

    A row beyond its r_apf adds no term, not even +0.0, so listing it changes
    no bit of the sum (an attraction component that underflowed to -0.0
    stays -0.0).  leader_step, the one-step reference, sums the field here.
    """
    k_rep = params.k_rep
    fx, fy = (gx - x) * params.k_att, (gy - y) * params.k_att
    for obs in obstacles:
        force = repulsion_force(x, y, obs, k_rep)
        if force is not NO_REPULSION:
            fx += force[0]
            fy += force[1]
    return fx, fy


def leader_step(agent: tuple[float, float, bool], gx: float, gy: float,
                spec: ScenarioSpec) -> tuple[tuple[float, float, bool], bool]:
    """One constant-speed descent step toward (gx, gy); returns (new agent, stalled flag).

    agent is (x, y, reached_goal).  The goal check runs before moving, so an
    agent already within goal_threshold latches reached_goal and stays put.
    A vanishing field (norm < STALL_EPS) is reported as a stall, also
    without moving.
    """
    x, y, reached = agent
    if reached:
        return agent, False
    threshold = spec.apf.goal_threshold
    if math.hypot(x - gx, y - gy) <= threshold:
        return (x, y, True), False
    # Only the obstacles listed in this point's force cell: every one that acts
    # is among them, and total_force skips the rest without adding a term.
    index = spec.obstacle_index
    cell_rows = index.force_cells.get((x // index.cell, y // index.cell), ())
    fx, fy = total_force(x, y, gx, gy, cell_rows, spec.apf)
    norm = math.hypot(fx, fy)
    if norm < STALL_EPS:
        return agent, True
    scale = spec.dt * spec.apf.leader_speed / norm
    x, y = x + fx * scale, y + fy * scale
    return (x, y, math.hypot(x - gx, y - gy) <= threshold), False


def descend(xy: array, gx: float, gy: float, last: int,
            spec: ScenarioSpec) -> tuple[int, str | None]:
    """Grow a descent path toward (gx, gy) through row last, or to its fixed point.

    xy holds the path's rows flat, (x, y) after step n at xy[2n], xy[2n + 1];
    its last row is the agent, not latched at the goal.  Each step is
    leader_step's with total_force inline over the force cell's rows, the
    same operations, checks and texts in the same order, and appends its row.
    The force cell is looked up only when x // cell or y // cell changes, and
    the goal test takes its hypot only when |x - gx| is within the threshold
    (and a slack): the hypot is never below |x - gx|, so the result is the same.
    A latched goal needs no flag: the goal test before moving latches it one
    step after the move that reached it, with the same result.  A step that
    leaves x and y == but not bit for bit (a signed zero) is no fixed point:
    the path goes on from the new bits.

    Returns (status, text): DESCENDING on row last; LATCHED, NO_FIELD or
    FIXED at the fixed point, whose row is the last appended; or SINGULAR
    or OVERFLOW and the fault's text, with nothing appended for its step.
    """
    apf = spec.apf
    k_att, k_rep, threshold = apf.k_att, apf.k_rep, apf.goal_threshold
    distance = spec.dt * apf.leader_speed
    index = spec.obstacle_index
    cell, force_cells = index.cell, index.force_cells
    # |x - gx| <= the hypot, so an agent farther than this along x is not
    # within; the slack keeps that true through the hypot's rounding.
    near = threshold * (1.0 + 1e-9)
    hypot, isfinite, copysign = math.hypot, math.isfinite, math.copysign
    append = xy.append
    x, y = xy[-2], xy[-1]
    cell_x = cell_y = None  # the force cell last looked up; cell_rows lists it
    for _ in range(len(xy) // 2 - 1, last):  # the steps after the last row through last
        if abs(x - gx) <= near and hypot(x - gx, y - gy) <= threshold:
            append(x)
            append(y)
            return LATCHED, None
        fx, fy = (gx - x) * k_att, (gy - y) * k_att
        kx, ky = x // cell, y // cell
        if kx != cell_x or ky != cell_y:
            cell_x, cell_y = kx, ky
            cell_rows = force_cells.get((kx, ky), ())
        for cx, cy, radius, d_safe, _ in cell_rows:
            ox, oy = x - cx, y - cy
            dist = hypot(ox, oy)
            if dist == 0.0:
                return SINGULAR, AT_CENTER.format(cx, cy)
            d_o = dist - radius
            if d_o < SURFACE_EPS:
                d_o = SURFACE_EPS
            if d_o > d_safe:
                continue
            scale = k_rep * (1.0 / d_o - 1.0 / d_safe) / dist
            if not isfinite(scale):
                return SINGULAR, NEAR_CENTER.format(dist, cx, cy)
            fx += ox * scale
            fy += oy * scale
        norm = hypot(fx, fy)
        if norm < STALL_EPS:
            append(x)
            append(y)
            return NO_FIELD, None
        scale = distance / norm
        new_x, new_y = x + fx * scale, y + fy * scale
        if not (isfinite(new_x) and isfinite(new_y)):
            return OVERFLOW, NON_FINITE
        append(new_x)
        append(new_y)
        if (new_x == x and new_y == y  # == and the same sign: the same bits
                and copysign(1.0, new_x) == copysign(1.0, x)
                and copysign(1.0, new_y) == copysign(1.0, y)):
            return FIXED, None
        x, y = new_x, new_y
    return DESCENDING, None
