"""Adaptive link topology: followers re-anchor their impedance link near obstacles.

Each drone normally tracks a fixed offset from the virtual leader.  When the
nearest obstacle surface comes closer than that obstacle's r_imp, the drone's
link switches to the obstacle and its formation slot gains a radial deflection
term, which carries it around the body.  The link releases back to the leader
once the surface distance exceeds r_imp * (1 + hysteresis); a drone never hands
over directly from one obstacle to another, it must release first.

A follower is its rows and its link.  Its rows, in two buffers, hold where
it stands after each step: (x, y) in a flat array("d") and its link mode
(LEADER or the index of the obstacle it is linked to, the trace's mode code)
in an array("q"); the last row is its current position and mode.  Its link
is (vx, vy), its link velocity, which no row records.  Obstacles are
ObstacleIndex rows (cx, cy, radius, r_apf, r_imp).

The virtual leader is not a drone.  It reads no drone, so its path is fixed
by the leader inputs of a spec (start, goal, obstacles, gates, apf, dt,
max_steps); a LeaderTrack descends that whole path once, through
apf.descend in its constructor, and every run with the same leader inputs
reads its rows and the obstacle index it carries.  A baseline drone's path
is a LeaderTrack too, built with the drone's own start and goal slots.  A
follower reads its own state, the leader's rows and the obstacles, never
another drone, so swarm_step runs one follower through the rows in one call,
its state in locals, and only appends its rows; simulator.run reads a run's
end from them.

swarm_step is the hot loop, so it applies the link rule, the deflection and
the link update itself rather than through update_link_mode,
tests/reference.py's deflection_offset and link_step; only its
leader-linked acquire calls nearest_obstacle, as update_link_mode does.
Those helpers stay the reference: the tests check swarm_step against a run
built from them, bit for bit.  The loop looks a leader-linked drone's link
cell up only when the drone enters another cell, scans it only when it lists
obstacles, and appends each row to the drone's buffers as it makes it.

Every follower starts at rest on its slot, and the zero-force update keeps
its zero link state until it first comes within an obstacle's r_imp.
LeaderTrack.ride moves it over that stretch from frame 0 at once, with
numpy, and swarm_step's loop steps on from there.  Where the stretch ends
reads only the leader's rows, the offset and the obstacles, all fixed with
the track, so it keeps it for every run that reads it: its ride table, from
array passes over boxes of slots.
"""

from __future__ import annotations

import math
import struct
from array import array

import numpy as np

from .world import NO_CANDIDATES, ObstacleIndex, TopologyParams, ScenarioSpec
from .apf import DESCENDING, LATCHED, NON_FINITE, SingularityError, descend
from .impedance import Coefficients
# Unused here, but bench/bench.py's traced mode rebinds these module names.
from .world import effective_obstacles  # noqa: F401
from .impedance import link_step  # noqa: F401
from .apf import leader_step  # noqa: F401

BOX_ROWS = 64  # slots a ride's stop search bounds with one box
REACH_SLACK = 1e-9  # relative widening of an obstacle's reach against a box, for rounding
LEADER = -1  # mode of a drone linked to the leader; otherwise an obstacle index
# A follower's faults, ranked in the order a step meets them: its link's
# direction, then the finiteness of its new state.
DEFLECTION_FAULT, OVERFLOW_FAULT = 1, 2
NO_DIRECTION = "{:g} m from obstacle center ({}, {}), direction undefined"

Fault = tuple[int, str]  # (kind, text)


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
        # list is in index order, so ties go to the lowest index here too.
        cell = index.link_cell
        ids, cell_rows = index.link_cells.get((x // cell, y // cell), NO_CANDIDATES)
        near = nearest_obstacle(x, y, cell_rows)
        if near is not None and near[1] < cell_rows[near[0]][4]:
            return ids[near[0]]
        return LEADER
    cx, cy, radius, _, r_imp = index.rows[mode]
    if math.hypot(x - cx, y - cy) - radius > r_imp * (1.0 + params.hysteresis):
        return LEADER
    return mode


def leader_inputs(spec: ScenarioSpec, start: tuple[float, float] | None = None,
                  goal: tuple[float, float] | None = None) -> tuple:
    """Every input a descent path depends on: its start and goal, spec's unless
    given, and spec's obstacles, gates, apf, dt and max_steps.

    A last item holds start and goal's bytes: == takes -0.0 for 0.0, though
    the path's signed zeros follow them, so the tuples compare them bit for
    bit."""
    start = spec.start.as_tuple() if start is None else start
    goal = spec.goal.as_tuple() if goal is None else goal
    return (start, goal, spec.obstacles, spec.gates, spec.apf, spec.dt, spec.max_steps,
            struct.pack("4d", *start, *goal))


class LeaderTrack:
    """One descent path from start toward goal, descended whole on construction.

    The virtual leader's path, from spec's start toward its goal, unless
    start and goal are given, as (x, y): a baseline drone's path runs from
    its start slot toward its goal slot.  inputs holds both, so a run can
    tell the track it was built for; index is spec's obstacle index, which
    the followers that read the track read with it.

    xy holds the rows, flat: (x, y) after step n is xy[2n], xy[2n + 1], and
    row 0 is the start.  The constructor runs apf.descend once, through row
    spec.max_steps, or to the path's fixed point, where it latched its goal,
    the field vanished or a step left x and y bit for bit; the path is at rest
    from step rest on, where every row is == to the one before, so a step
    that flipped only a signed zero moved nothing.  stall_step is rest unless
    the path latched its goal.  A step that faults is not stored: fault is
    its (step, kind, text).
    row(n) reads row n, appending copies of the fixed point through n first;
    it raises the fault's SingularityError past a faulted path's rows, and
    IndexError past a moving path's.  Whoever builds a track chooses the runs
    that share it.

    The runs that share a track also share its followers' rides: where a
    follower at rest on its slot from frame 0 stops riding (ride_table(offset),
    kept in ride_tables), which follows from the rows, the offset and the
    obstacles alone, all fixed with the track.
    """

    def __init__(self, spec: ScenarioSpec, start: tuple[float, float] | None = None,
                 goal: tuple[float, float] | None = None):
        self.inputs = leader_inputs(spec, start, goal)
        start, self.goal = self.inputs[:2]
        self.index = spec.obstacle_index
        self.xy = xy = array("d", start)
        self.rest: int | None = None
        self.stall_step: int | None = None
        self.fault: tuple[int, int, str] | None = None
        self.ride_tables: dict[tuple[float, float], int] = {}
        self._boxes: tuple | None = None
        status, text = descend(xy, *self.goal, spec.max_steps, spec)
        if text is not None:
            self.fault = (len(xy) // 2, status, text)
        elif status != DESCENDING:  # the last row repeats the one before
            x, y, rest = xy[-2], xy[-1], len(xy) // 2 - 1
            while rest > 1 and xy[2 * rest - 4] == x and xy[2 * rest - 3] == y:
                rest -= 1
            self.rest = rest
            self.stall_step = None if status == LATCHED else rest

    def row(self, step: int) -> tuple[float, float]:
        """The (x, y) after step, padding the fixed point through it first."""
        xy = self.xy
        if 2 * step >= len(xy):
            if self.fault is not None:
                raise SingularityError(self.fault[2])
            if self.rest is None:
                raise IndexError(f"row {step} is past the track's last row {len(xy) // 2 - 1}")
            xy.extend(xy[-2:] * (step + 1 - len(xy) // 2))
        return xy[2 * step], xy[2 * step + 1]

    def ride_table(self, offset: tuple[float, float]) -> int:
        """The first step that the follower on offset does not ride: its stop.

        A drone starts on its slot (leader row 0 + offset) with a zero link,
        and while nothing pushes on its link it stays on the slot: its
        position after step n is slot n = leader row n + offset, plus +0.0,
        which no hypot reads.  Its ride hands over to swarm_step's loop at
        the first step n whose slot n - 1 is within its own r_imp of an
        obstacle or whose slot n is not finite; else the stop is the number
        of rows the track holds.
        Searched once per offset, over the rows the track holds then, and
        kept in ride_tables for every run that reads this track: the boxes
        bound the hypot tests, and one isfinite pass over the slots before
        the hit bounds the stop by the first slot that is not finite.

        The stop rule is wider than an acquire: with mixed r_imp a drone
        within one obstacle's r_imp whose nearest obstacle is another stops
        riding there although it acquires nothing.  Rounding is monotone,
        so each side of the box of BOX_ROWS slots is one of its slots: an
        obstacle that the box clears by its reach, widened by REACH_SLACK,
        reaches none of them, and swarm_step's hypot decides only in the
        other boxes.
        """
        if offset in self.ride_tables:
            return self.ride_tables[offset]
        held = len(self.xy) // 2
        if self._boxes is None or self._boxes[0] != held:
            leader, starts = np.frombuffer(self.xy).reshape(-1, 2), np.arange(0, held, BOX_ROWS)
            posts = np.array(self.index.rows).reshape(-1, 5)
            self._boxes = (held, np.minimum.reduceat(leader, starts),
                           np.maximum.reduceat(leader, starts), posts[:, 0], posts[:, 1],
                           (posts[:, 2] + posts[:, 4]) * (1.0 + REACH_SLACK))
        _, lo, hi, xs, ys, reach = self._boxes
        with np.errstate(over="ignore", invalid="ignore"):
            slots = np.frombuffer(self.xy).reshape(-1, 2) + offset
            lo, hi = lo + offset, hi + offset  # each side is one of the box's slots
            near = ~((np.maximum(lo[:, :1] - xs, xs - hi[:, :1]) > reach)
                     | (np.maximum(lo[:, 1:] - ys, ys - hi[:, 1:]) > reach))
        stop = held
        for box in np.flatnonzero(near.any(axis=1)).tolist():  # step i + 1 looks from slot i
            first = box * BOX_ROWS
            rows = [self.index.rows[j] for j in np.flatnonzero(near[box]).tolist()]
            hit = next((i for i, (x, y) in enumerate(slots[first:first + BOX_ROWS].tolist(), first)
                        if any(math.hypot(x - cx, y - cy) - radius < r_imp
                               for cx, cy, radius, _, r_imp in rows)), None)
            if hit is not None:
                stop = hit + 1
                break
        bad = ~np.isfinite(slots[:stop])
        if bad.any():
            stop = int(bad.any(axis=1).argmax())
        self.ride_tables[offset] = stop
        return stop

    def ride(self, offset: tuple[float, float], last: int, coefficients: Coefficients,
             positions: array, modes: array) -> None:
        """Move the follower on offset from frame 0 up to its stop, or to last.

        Its buffers hold frame 0 alone, where the drone rests on its slot:
        dx = dy = vx = vy = +0.0.  Where the zero-force update keeps that,
        p00 * 0.0 + p01 * 0.0 + g0 * 0.0 and p10 * 0.0 + p11 * 0.0 + g1 *
        0.0 both +0.0, its rows are (leader row + offset) + 0.0, computed
        with numpy's elementwise IEEE operations in swarm_step's order.
        Infinite gains make them nan, and then the drone stays at frame 0 for
        swarm_step's loop.  Appends the ride's rows; the drone's link after
        its last row is still the rest link (0.0, 0.0).  It reads leader rows
        1 to end through a view of xy that dies with its expression, since
        row() later extends xy and an array exporting its buffer cannot resize.
        """
        p00, p01, p10, p11, g0, g1 = coefficients
        # +0.0 is the one double whose bytes are all zero.
        if struct.pack("2d", p00 * 0.0 + p01 * 0.0 + g0 * 0.0,
                       p10 * 0.0 + p11 * 0.0 + g1 * 0.0) == bytes(16):
            end = min(last, self.ride_table(offset) - 1)
            rode = (np.frombuffer(self.xy, count=2 * end + 2)[2:].reshape(-1, 2) + offset) + 0.0
            positions.frombytes(rode.tobytes())
            modes.frombytes(struct.pack("q", LEADER) * end)


def swarm_step(link: tuple[float, float], last: int, track: LeaderTrack,
               offset: tuple[float, float], spec: ScenarioSpec, coefficients: Coefficients,
               positions: array, modes: array) -> tuple[tuple | None, Fault | None]:
    """Advance one follower from the last row of its buffers through step last.

    positions and modes are the drone's own row buffers; their last row is
    its (x, y) and mode after step len(modes) - 1, and link is its (vx, vy)
    there.  track holds the leader's rows through last and the obstacles;
    spec the topology parameters; offset is the drone's (x, y) formation
    offset and coefficients link_coefficients(spec.impedance, spec.dt).  At
    each step n the drone refreshes its link mode, integrates its link
    against the slot it was tracking (on the leader's row n - 1), and
    re-anchors the integrated deviation onto the slot derived from row n.
    Anchoring this way makes pure transport exact: a drone sitting on its
    slot with no deviation translates with the leader instead of lagging it.
    The slot's deflection depends on the drone alone, so both slots share it.

    The link rule is update_link_mode's: on a link cell that lists
    obstacles, a leader-linked drone acquires the row that nearest_obstacle
    finds in the cell when its surface is closer than that row's r_imp.  The
    deflection is tests/reference.py's deflection_offset's, with the same
    SingularityError text, and the link update is link_step's with no
    external force, all written out with the same operations in the same
    order, so every bit matches the helpers.  A linked step takes its
    obstacle's center distance once, for the release test and the
    deflection alike, and an acquire step once for the row it acquires.

    Each step appends the drone's new x, y to positions and its mode to
    modes as it makes them.  The call stops at last, or at the first step
    that faults: its link has no direction, or its new state is not finite.
    Returns (link, None) after step last; or None and the fault (kind,
    text), with nothing appended for the step that faulted, which is
    len(modes).
    """
    vx, vy = link
    x, y, mode = positions[-2], positions[-1], modes[-1]
    step = len(modes) - 1
    ox, oy = offset
    index, params = track.index, spec.topology
    rows, link_cells, link_cell = index.rows, index.link_cells, index.link_cell
    release = 1.0 + params.hysteresis
    k_impF = params.k_impF
    p00, p01, p10, p11, g0, g1 = coefficients
    # link_step's force terms g * f for f = 0.0 are signed zeros; adding a
    # +0.0 turns a -0.0 sum into +0.0, so the terms stay.
    hold0, hold1 = g0 * 0.0, g1 * 0.0
    hypot, isfinite, nearest = math.hypot, math.isfinite, nearest_obstacle
    xy = track.xy
    # The slot the drone tracks at step n sits on the leader's row n - 1: the
    # slot of row n that step n - 1 made, before its deflection.
    slot_x, slot_y = xy[2 * step] + ox, xy[2 * step + 1] + oy
    cell_x = cell_y = None  # the link cell last looked up; ids, cell_rows list it
    put, put_mode = positions.append, modes.append
    for nlx, nly in zip(xy[2 * step + 2:2 * last + 2:2], xy[2 * step + 3:2 * last + 3:2]):
        if mode == LEADER:
            kx, ky = x // link_cell, y // link_cell
            if kx != cell_x or ky != cell_y:
                cell_x, cell_y = kx, ky
                ids, cell_rows = link_cells.get((kx, ky), NO_CANDIDATES)
            if ids:
                j, gap = nearest(x, y, cell_rows)
                if gap < cell_rows[j][4]:
                    mode = ids[j]
                    cx, cy, _, _, r_imp = cell_rows[j]
                    ex, ey = x - cx, y - cy
                    dist = hypot(ex, ey)
        else:
            cx, cy, radius, _, r_imp = rows[mode]
            ex, ey = x - cx, y - cy
            dist = hypot(ex, ey)
            if dist - radius > r_imp * release:
                mode = LEADER
        next_slot_x, next_slot_y = nlx + ox, nly + oy
        if mode == LEADER:
            dx, dy = x - slot_x, y - slot_y
            new_x, new_y = next_slot_x, next_slot_y
        else:  # the deflection
            scale = k_impF * r_imp / dist if dist else math.inf
            if not isfinite(scale):
                return None, (DEFLECTION_FAULT, NO_DIRECTION.format(dist, cx, cy))
            ex, ey = ex * scale, ey * scale
            dx, dy = x - (slot_x + ex), y - (slot_y + ey)
            new_x, new_y = next_slot_x + ex, next_slot_y + ey
        new_x += p00 * dx + p01 * vx + hold0
        new_y += p00 * dy + p01 * vy + hold0
        vx, vy = p10 * dx + p11 * vx + hold1, p10 * dy + p11 * vy + hold1
        # A sum of finite numbers can overflow too: only then look at each.
        if not (isfinite(new_x + new_y + vx + vy)
                or all(map(isfinite, (new_x, new_y, vx, vy)))):
            return None, (OVERFLOW_FAULT, NON_FINITE)
        x, y, slot_x, slot_y = new_x, new_y, next_slot_x, next_slot_y
        put(x)
        put(y)
        put_mode(mode)
    return (vx, vy), None
