"""Deterministic fixed-step simulation loop for both controllers.

run() keeps only the current state and records it after every step into the
trace's columns, so metrics and export read arrays and never re-integrate
anything: replaying the same spec gives identical columns.  The state of a run
is its drones, plain floats and ints: topology drones for the adaptive-link
swarm, apf agents for the baseline; either way a drone starts with its x, y.
The swarm's virtual leader reads no drone, so it is not stepped here: its rows
come from a topology.LeaderTrack, which a sweep builds once and hands to every
point, and they fill the trace's leader column once, when the trace is built.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .world import ScenarioSpec
from .apf import SingularityError
from .impedance import link_coefficients
from .topology import LeaderTrack, initial_swarm_state, leader_inputs, swarm_step
from .baseline import initial_baseline_state, baseline_step

SWARMPATH = "swarmpath"
CONVENTIONAL_APF = "conventional-apf"
CONTROLLERS = (SWARMPATH, CONVENTIONAL_APF)

STALL_PATIENCE = 100  # consecutive stalled steps before the run is abandoned

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

    def drone_positions(self, drone: int) -> np.ndarray:
        """(n_frames, 2) read-only track of one drone, a view of positions."""
        return self.positions[:, drone]


class _Columns:
    """The trace's columns while a run appends to them, as flat arrays.

    A row is appended element by element, which costs less than writing it
    into numpy per step; the finished arrays become the trace's columns
    without a copy.
    """

    def __init__(self, n_drones: int, linked: bool):
        self.rows = 0
        self.n_drones = n_drones
        self.positions = array("d")  # x, y of every drone, row after row
        self.modes = array("q") if linked else None

    def record(self, drones) -> None:
        positions = self.positions
        for d in drones:
            positions.append(d[0])
            positions.append(d[1])
        if self.modes is not None:
            modes = self.modes
            for d in drones:
                modes.append(d[4])
        self.rows += 1

    def trace(self, spec: ScenarioSpec, controller: str, outcome: str,
              track: LeaderTrack | None) -> SimulationTrace:
        shape = (self.rows, self.n_drones)
        t = np.arange(self.rows) * spec.dt  # bit for bit the step * dt of each row
        positions = np.frombuffer(self.positions).reshape(shape + (2,))
        leader = None if track is None else _leader_column(track, self.rows)
        modes = (None if self.modes is None
                 else np.frombuffer(self.modes, dtype=np.int64).reshape(shape))
        for col in (t, positions, leader, modes):
            if col is not None:
                col.flags.writeable = False
        return SimulationTrace(spec, controller, t, positions, leader, modes, outcome)


def _leader_column(track: LeaderTrack, frames: int) -> np.ndarray:
    """(frames, 2) leader rows; rows past the track's fixed point repeat its last."""
    known = np.frombuffer(track.xy[:2 * frames]).reshape(-1, 2)
    column = np.empty((frames, 2))
    column[:len(known)] = known
    column[len(known):] = known[-1]
    return column


def _finite(drones) -> bool:
    """True when every number of every drone is finite.

    One C-level sum decides the common case; only a sum that is not finite,
    which finite values can also reach by overflowing, looks at each number.
    """
    numbers = list(chain(*drones))
    return math.isfinite(sum(numbers)) or all(map(math.isfinite, numbers))


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
    inputs (ValueError otherwise); when None, the run builds its own.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}, expected one of {CONTROLLERS}")
    if controller == SWARMPATH:
        if track is None:
            track = LeaderTrack(spec)
        elif track.inputs != leader_inputs(spec):
            raise ValueError("the leader track was built for other leader inputs "
                             "(start, goal, obstacles, gates, apf, dt, max_steps)")
        drones = initial_swarm_state(spec)
        coefficients = link_coefficients(spec.impedance, spec.dt)
        offsets = tuple((off.x, off.y) for off in spec.formation_offsets)

        def advance(drones, step):
            drones = swarm_step(drones, step, track, spec, coefficients, offsets)
            return drones, track.stalled(step)
    else:
        if track is not None:
            raise ValueError(f"the {controller} controller has no leader to take a track")
        drones = initial_baseline_state(spec)

        def advance(drones, step):
            return baseline_step(drones, spec)
    columns = _Columns(len(spec.formation_offsets), linked=track is not None)
    slots = [(spec.goal.x + off.x, spec.goal.y + off.y) for off in spec.formation_offsets]
    threshold = spec.apf.goal_threshold
    stall_run = 0
    step = 0
    while True:
        columns.record(drones)
        if all(math.hypot(d[0] - gx, d[1] - gy) <= threshold
               for d, (gx, gy) in zip(drones, slots)):
            return columns.trace(spec, controller, COMPLETED, track)
        if stall_run >= STALL_PATIENCE:
            return columns.trace(spec, controller, STALLED, track)
        if step == spec.max_steps:
            return columns.trace(spec, controller, MAX_STEPS, track)
        step += 1
        try:
            drones, stalled = advance(drones, step)
            if not _finite(drones):
                raise SingularityError("the state overflowed to a non-finite value")
        except SingularityError as exc:
            raise SingularityError(f"step {step}: {exc}") from None
        stall_run = stall_run + 1 if stalled else 0
