"""Deterministic fixed-step simulation of both controllers.

A run records frame 0, moves the drones step by step, and ends on the first
frame at which every drone is within goal_threshold of its goal slot, on its
stall, or at max_steps, whichever comes first.  Metrics and export read the
trace's columns and never re-integrate anything: replaying the same spec
gives identical columns.

Every run is driven by topology.LeaderTracks, each built whole, through
max_steps or to its fixed point or first fault: the swarm by its leader's,
which runs with the same leader inputs can share, the baseline by one per
drone from its start slot toward its goal slot (baseline_step), whose rows
are the drone's.  Each swarm follower reads only its own rows and link, the
leader's rows and the obstacles, so it rides from frame 0 at rest on its
slot (LeaderTrack.ride), and topology.swarm_step runs it on through the
leader's rows in one call.  No drone reads another, so one loop (_run)
drives both controllers, exactly as a loop over steps would meet its end:
completion is read from the rows (_first_complete), the stall from the
tracks (_last_step), and the first fault at or before the end is raised
(_raise_first).  A run stalls STALL_PATIENCE - 1 steps after the last of its
tracks comes to rest, provided every one has and one rested short of its
goal.
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

STALL_PATIENCE = 100  # steps at rest, the first included, on which a stalled run ends
# Rows a run pads its tracks by at a time past the longest one, while no
# frame has completed; the tracks before that are descended in one call each.
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


def _last_step(tracks: list[LeaderTrack], max_steps: int) -> tuple[int, str]:
    """The step a run driven by tracks ends on unless a frame completes first,
    and its outcome: STALLED STALL_PATIENCE - 1 steps after the last track's
    rest, provided every track has one and one has a stall_step, or MAX_STEPS
    at max_steps, whichever comes first."""
    if all(t.rest is not None for t in tracks) and any(t.stall_step is not None for t in tracks):
        stall = max(t.rest for t in tracks) + STALL_PATIENCE - 1
        if stall <= max_steps:
            return stall, STALLED
    return max_steps, MAX_STEPS


def _run(spec: ScenarioSpec, controller: str, tracks: list[LeaderTrack],
         positions: list[array], modes: list[array]) -> SimulationTrace:
    """The run driven by tracks, whose drones' flat (x, y) rows are positions.

    A drone with a modes buffer is a follower of tracks[0]: its buffers
    start with frame 0, on its slot at start + offset, and only its link
    (vx, vy) passes from one round to the next.  With no modes (the
    baseline) positions are the tracks' own xy, and no drone is stepped
    here.  The first round is frame 0 alone.  Each later one pads every
    resting track through its target, the first to the longest track and
    each after that at least CHUNK rows on, and runs every follower on
    through it: the first rides it from frame 0 (the track's ride), then
    swarm_step runs it on, past another's fault, which only a run that
    raises pays for.  A track's fault ranks by its place in tracks; no
    follower reaches its step.  The run ends on the earliest of
    _first_complete over the rows that every drone holds and _last_step.
    A round ends short of that last step only while no held row completes,
    so each round's completion test finds what a test of its new rows alone
    would.
    """
    # Only followers read a link: the baseline's runs never depend on the impedance.
    coefficients = link_coefficients(spec.impedance, spec.dt) if modes else None
    offsets = [(off.x, off.y) for off in spec.formation_offsets]
    goals = [(spec.goal.x + ox, spec.goal.y + oy) for ox, oy in offsets]
    links = [(0.0, 0.0)] * len(modes)  # at rest; None once a follower has faulted
    faults = [(*t.fault[:2], i, t.fault[2]) for i, t in enumerate(tracks) if t.fault]
    last, outcome = _last_step(tracks, spec.max_steps)
    frontier = 0  # live drones hold rows through frontier
    while True:
        end = _first_complete(_columns(positions), goals, spec.apf.goal_threshold)
        if end <= last:
            outcome = COMPLETED
            break
        fail = min(faults)[0] if faults else math.inf
        # No later frame completes once a fault is at most a step past the rows.
        if fail <= frontier + 1 or frontier == last:
            end = last
            break
        longest = max(len(t.xy) for t in tracks) // 2 - 1
        target = min(max(longest, frontier + CHUNK), last, fail - 1)
        for t in tracks:
            t.row(target)  # a track at rest repeats its rest through target
        for i, link in enumerate(links):
            if link is not None:
                if not frontier:  # each follower starts at rest on its slot
                    tracks[0].ride(offsets[i], target, coefficients, positions[i], modes[i])
                links[i], fault = swarm_step(link, target, tracks[0], offsets[i], spec,
                                             coefficients, positions[i], modes[i])
                if fault is not None:
                    faults.append((len(modes[i]), fault[0], i, fault[1]))
        frontier = target
    _raise_first(faults, end)
    rows = end + 1
    leader = np.frombuffer(tracks[0].xy, count=2 * rows).reshape(rows, 2).copy() if modes else None
    link_modes = np.stack([np.frombuffer(m, dtype=np.int64, count=rows) for m in modes],
                          axis=1) if modes else None
    return _trace(spec, controller, outcome, _columns(positions, rows), leader, link_modes)


def run(spec: ScenarioSpec, controller: str = SWARMPATH,
        track: LeaderTrack | None = None) -> SimulationTrace:
    """Simulate until completion, a stall, or max_steps.

    Frame 0 is the initial state and counts for completion (a swarm that
    starts on its goal slots completes in zero steps); the run stops on the
    first complete frame, so a completed trace ends on it.  Complete means
    every drone within goal_threshold of its goal slot.  Stalled means that
    every track that drives the run (the swarm's leader, or each baseline
    drone's) has been at rest for STALL_PATIENCE steps, one of them short of
    its goal.  Singularities raised by the controllers or the leader, and a
    state that is no longer finite, are raised as SingularityError with the
    offending step attached.

    track is the swarm leader's LeaderTrack; runs that share one step the
    leader once between them.  It must have been built for spec's leader
    inputs, or ValueError; when None, the run builds its own.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}, expected one of {CONTROLLERS}")
    offsets = spec.formation_offsets
    if controller == CONVENTIONAL_APF:
        if track is not None:
            raise ValueError(f"the {controller} controller has no leader to take a track")
        tracks = [baseline_step(spec, offset) for offset in offsets]
        return _run(spec, controller, tracks, [t.xy for t in tracks], [])
    if track is None:
        track = LeaderTrack(spec)
    elif track.inputs != leader_inputs(spec):
        raise ValueError("the leader track was built for other leader inputs "
                         "(start, goal, obstacles, gates, apf, dt, max_steps)")
    positions = [array("d", (spec.start.x + off.x, spec.start.y + off.y)) for off in offsets]
    return _run(spec, controller, [track], positions, [array("q", (LEADER,)) for _ in offsets])
