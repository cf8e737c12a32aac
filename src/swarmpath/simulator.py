"""Deterministic fixed-step simulation of both controllers.

A run records frame 0, moves the drones step by step, and ends on the first
frame at which every drone is within goal_threshold of its goal slot, after a
stall has lasted STALL_PATIENCE steps, or at max_steps, whichever comes first.
Metrics and export read the trace's columns and never re-integrate anything:
replaying the same spec gives identical columns.

No drone of either controller reads another, so both run drone-major and
run composes each the same way, exactly as a loop over steps would meet its
end: one track per drone, then the end and the first fault at or before it
(_raise_first), then the columns (_columns).  Every track is a
topology.LeaderTrack, built whole, through max_steps or to its fixed point
or first fault.  Each baseline drone's runs from its start slot toward its
goal slot, built alone by baseline_step.  The swarm's leader reads no
drone, so it is not stepped here: its rows come from its track, which a
sweep builds once and hands to every point, and its fault is the track's.
Each swarm follower reads only its own rows and link, the leader's rows and
the obstacles, so it rides from frame 0 at rest on its slot
(LeaderTrack.ride), and topology.swarm_step runs it on through the leader's
whole path in one call.  The kernels only append rows: the end is read from
them here, by one completion rule for both controllers (_first_complete) and
the baseline's stall rule (_first_stall).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .world import ScenarioSpec
from .apf import SingularityError
from .impedance import link_coefficients
from .topology import DEFLECTION_FAULT, LEADER, LeaderTrack, leader_inputs, swarm_step
from .baseline import baseline_step

SWARMPATH = "swarmpath"
CONVENTIONAL_APF = "conventional-apf"
CONTROLLERS = (SWARMPATH, CONVENTIONAL_APF)

STALL_PATIENCE = 100  # consecutive stalled steps before the run is abandoned
# Rows a swarm run appends at a time past its leader's fixed point, while no
# frame has completed; the path before that point is descended in one call.
CHUNK = 128

COMPLETED = "completed"
MAX_STEPS = "max_steps"
STALLED = "stalled"


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Recorded run as read-only columns; row n is step n.

    t (F,) is step * dt; positions (F, D, 2) holds every drone; leader (F, 2)
    and modes (F, D) are None for the baseline controller.  A mode is -1 while
    the drone is linked to the leader, otherwise the obstacle index.
    """

    spec: ScenarioSpec
    controller: str
    t: np.ndarray
    positions: np.ndarray
    leader: np.ndarray | None
    modes: np.ndarray | None
    outcome: str   # COMPLETED | MAX_STEPS | STALLED

    @property
    def n_frames(self) -> int:
        return len(self.t)

    @property
    def n_drones(self) -> int:
        return self.positions.shape[1]


def _trace(spec: ScenarioSpec, controller: str, outcome: str, positions: np.ndarray,
           leader: np.ndarray | None = None, modes: np.ndarray | None = None) -> SimulationTrace:
    """The finished run, its columns made read-only."""
    with np.errstate(over="ignore"):  # a t past float range is inf
        t = np.arange(len(positions)) * spec.dt  # bit for bit the step * dt of each row
    for col in (t, positions, leader, modes):
        if col is not None:
            col.flags.writeable = False
    return SimulationTrace(spec, controller, t, positions, leader, modes, outcome)


def _first_complete(columns: np.ndarray, goals: list[tuple[float, float]],
                    threshold: float) -> float:
    """The least row of columns (F, D, 2) at which every drone is within threshold
    of its goal slot, inf if none is.

    |x - gx| and |y - gy| are <= the hypot, so only rows within the threshold
    along both take the hypot; the slack keeps that true through its rounding.
    """
    with np.errstate(over="ignore"):  # an inf difference is not near, as with floats
        near = (np.abs(columns - goals) <= threshold * (1.0 + 1e-9)).all(axis=(1, 2))
    for n in np.flatnonzero(near).tolist():
        if all(math.hypot(x - gx, y - gy) <= threshold
               for (x, y), (gx, gy) in zip(columns[n].tolist(), goals)):
            return n
    return math.inf


def _first_stall(columns: np.ndarray) -> float:
    """The last step of the first STALL_PATIENCE steps in a row at which no drone's
    row of columns (F, D, 2) changes under ==, inf if there are none.

    A signed zero that flips (-0.0 to 0.0) changes no row.
    """
    # The steps through each that moved, step 0 counted as one: where two
    # STALL_PATIENCE rows apart are equal, no step after the first moved.
    moves = np.cumsum(np.r_[True, (columns[1:] != columns[:-1]).any(axis=(1, 2))])
    runs = np.flatnonzero(moves[STALL_PATIENCE:] == moves[:-STALL_PATIENCE])
    return int(runs[0]) + STALL_PATIENCE if len(runs) else math.inf


def _raise_first(faults: list[tuple[int, int, int, str]], end: int) -> None:
    """Raise the lowest fault (step, kind, drone, text) if its step is at or before end.

    The lowest by (step, kind, drone) is the one a loop over steps meets
    first.  A link with no direction names its drone.
    """
    if faults and min(faults)[0] <= end:
        step, kind, drone, text = min(faults)
        if kind == DEFLECTION_FAULT:  # drones are numbered from 1, as in files
            text = f"drone {drone + 1}: {text}"
        raise SingularityError(f"step {step}: {text}")


def _columns(buffers: list[array], rows: int | None = None) -> np.ndarray:
    """The (rows, D, 2) positions of D drones, read from each one's flat (x, y)
    rows; rows defaults to those that every drone holds (a faulted drone holds
    fewer)."""
    rows = min(len(xy) for xy in buffers) // 2 if rows is None else rows
    return np.stack([np.frombuffer(xy, count=2 * rows).reshape(-1, 2) for xy in buffers], axis=1)


def _baseline_run(spec: ScenarioSpec) -> SimulationTrace:
    """The baseline run, composed from one descent track per drone.

    Each track is descended whole, through max_steps, or to its fixed
    point, whose row it repeats from there on, or to its first fault: a
    track at rest is padded through the latest rest plus STALL_PATIENCE - 1,
    so that a still run that goes on to the end is in the rows, but not past
    max_steps or the row before the least fault step.  The run ends on the
    earliest of: _first_complete, _first_stall (while a drone is not within)
    and max_steps, all read from the rows that every drone holds.
    """
    tracks = [baseline_step(spec, offset) for offset in spec.formation_offsets]
    fail = min((t.fault[0] for t in tracks if t.fault is not None), default=math.inf)
    rest = max(math.inf if t.rest is None else t.rest for t in tracks)
    pad = min(spec.max_steps, fail - 1, rest + STALL_PATIENCE - 1)
    for t in tracks:
        if t.rest is not None:
            t.row(pad)
    columns = _columns([t.xy for t in tracks])
    complete = _first_complete(columns, [t.goal for t in tracks], spec.apf.goal_threshold)
    stall = _first_stall(columns)
    end = min(complete, stall, spec.max_steps)
    _raise_first([(*t.fault[:2], i, t.fault[2]) for i, t in enumerate(tracks) if t.fault], end)
    outcome = COMPLETED if end == complete else STALLED if end == stall else MAX_STEPS
    return _trace(spec, CONVENTIONAL_APF, outcome, columns[:end + 1])


def _swarm_run(spec: ScenarioSpec, track: LeaderTrack) -> SimulationTrace:
    """The swarm run, composed from the leader's track and each follower's rows.

    The leader reads no drone, so the track holds its whole path, through
    max_steps or to its fixed point or fault; the fault is appended with
    drone -1 (the track holds no row for its step).  Each follower's row
    buffers start with frame 0, on its slot at start + offset, and are the
    only record of where it stands; only its link (vx, vy) passes from one
    round to the next.  The first round is frame 0 alone; the next rides
    each follower from frame 0 (the track's ride) and runs it on through the
    leader's rows in swarm_step, on past another's fault, which only a run
    that raises pays for.  Past a fixed point, while no frame completes,
    each round appends at least CHUNK more rows of the rest and every
    follower runs on through them.  The run ends on the earliest of:
    _first_complete over the rows that every drone holds, the leader's
    stall_step plus STALL_PATIENCE - 1, and max_steps.  A round ends short
    of that last step only while no held row completes, so each round's
    completion test finds what a test of its new rows alone would.
    """
    coefficients = link_coefficients(spec.impedance, spec.dt)
    offsets = [(off.x, off.y) for off in spec.formation_offsets]
    goals = [(spec.goal.x + ox, spec.goal.y + oy) for ox, oy in offsets]
    positions = [array("d", (spec.start.x + ox, spec.start.y + oy)) for ox, oy in offsets]
    modes = [array("q", (LEADER,)) for _ in offsets]
    links = [(0.0, 0.0)] * len(offsets)  # at rest; None once a follower has faulted
    faults: list[tuple[int, int, int, str]] = []
    if track.fault is not None:
        faults.append((*track.fault[:2], -1, track.fault[2]))
    stall = math.inf if track.stall_step is None else track.stall_step + STALL_PATIENCE - 1
    last = min(spec.max_steps, stall)  # the end if no frame completes
    frontier = 0  # live followers hold rows through frontier
    while True:
        end = _first_complete(_columns(positions), goals, spec.apf.goal_threshold)
        if end <= last:
            outcome = COMPLETED
            break
        fail = min(faults)[0] if faults else math.inf
        # No later frame completes once a fault is at most a step past the rows.
        if fail <= frontier + 1 or frontier == last:
            end, outcome = last, STALLED if last == stall else MAX_STEPS
            break
        target = min(max(len(track.xy) // 2 - 1, frontier + CHUNK), last, fail - 1)
        track.row(target)  # past a fixed point the track repeats it
        for i, link in enumerate(links):
            if link is not None:
                if not frontier:  # each follower starts at rest on its slot
                    track.ride(offsets[i], target, coefficients, positions[i], modes[i])
                links[i], fault = swarm_step(link, target, track, offsets[i], spec,
                                             coefficients, positions[i], modes[i])
                if fault is not None:
                    faults.append((len(modes[i]), fault[0], i, fault[1]))
        frontier = target
    _raise_first(faults, end)
    rows = end + 1
    leader = np.frombuffer(track.xy, count=2 * rows).reshape(rows, 2).copy()
    modes = np.stack([np.frombuffer(m, dtype=np.int64, count=rows) for m in modes], axis=1)
    return _trace(spec, SWARMPATH, outcome, _columns(positions, rows), leader, modes)


def run(spec: ScenarioSpec, controller: str = SWARMPATH,
        track: LeaderTrack | None = None) -> SimulationTrace:
    """Simulate until completion, a persistent stall, or max_steps.

    Frame 0 is the initial state and counts for completion (a swarm that
    starts on its goal slots completes in zero steps); the run stops on the
    first complete frame, so a completed trace ends on it.  Complete means
    every drone within goal_threshold of its goal slot.  Singularities raised
    by the controllers or the leader, and a state that is no longer finite,
    are raised as SingularityError with the offending step attached.

    track is the swarm leader's LeaderTrack; runs that share one step the
    leader once between them.  It must have been built for spec's leader
    inputs, or ValueError; when None, the run builds its own.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}, expected one of {CONTROLLERS}")
    if controller == CONVENTIONAL_APF:
        if track is not None:
            raise ValueError(f"the {controller} controller has no leader to take a track")
        return _baseline_run(spec)
    if track is None:
        track = LeaderTrack(spec)
    elif track.inputs != leader_inputs(spec):
        raise ValueError("the leader track was built for other leader inputs "
                         "(start, goal, obstacles, gates, apf, dt, max_steps)")
    return _swarm_run(spec, track)
