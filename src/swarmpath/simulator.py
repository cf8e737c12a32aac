"""Deterministic fixed-step simulation loop for both controllers.

The state of a run is its drones, plain floats and ints in a list that each
step updates in place: topology drones for the adaptive-link swarm, apf agents
for the baseline; either way a drone starts with its x, y.  A step is one pass
over the drones: it moves each one, appends its row to the trace's columns,
adds its new numbers to a sum and tests it against its goal slot.  run()
records frame 0 and tests it once, then loops over the steps and acts on what
each returns, so it stays the only loop and the one place that ends a run.
Metrics and export read the columns and never re-integrate anything:
replaying the same spec gives identical columns.  The swarm's virtual leader
reads no drone, so it is not stepped here: its rows come from a
topology.LeaderTrack, which a sweep builds once and hands to every point, and
they fill the trace's leader column once, when the trace is built.
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

    Frame 0 is written here; each step function appends its own row, element
    by element, which costs less than writing it into numpy per step.  The
    finished arrays become the trace's columns without a copy.
    """

    def __init__(self, drones, linked: bool):
        self.n_drones = len(drones)
        self.positions = array("d", chain.from_iterable(d[:2] for d in drones))
        self.modes = array("q", (d[4] for d in drones)) if linked else None

    def trace(self, spec: ScenarioSpec, controller: str, outcome: str,
              track: LeaderTrack | None, rows: int) -> SimulationTrace:
        shape = (rows, self.n_drones)
        t = np.arange(rows) * spec.dt  # bit for bit the step * dt of each row
        positions = np.frombuffer(self.positions).reshape(shape + (2,))
        leader = (None if track is None
                  else np.frombuffer(track.xy, count=2 * rows).reshape(rows, 2).copy())
        modes = (None if self.modes is None
                 else np.frombuffer(self.modes, dtype=np.int64).reshape(shape))
        for col in (t, positions, leader, modes):
            if col is not None:
                col.flags.writeable = False
        return SimulationTrace(spec, controller, t, positions, leader, modes, outcome)


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
        columns = _Columns(drones, linked=True)
        coefficients = link_coefficients(spec.impedance, spec.dt)
        offsets = tuple((off.x, off.y) for off in spec.formation_offsets)
        positions, modes = columns.positions, columns.modes

        def advance(step):
            return swarm_step(drones, step, track, spec, coefficients, offsets,
                              positions, modes)
    else:
        if track is not None:
            raise ValueError(f"the {controller} controller has no leader to take a track")
        drones = initial_baseline_state(spec)
        columns = _Columns(drones, linked=False)
        positions = columns.positions

        def advance(step):
            return baseline_step(drones, spec, positions)
    threshold = spec.apf.goal_threshold
    done = all(math.hypot(x - (spec.goal.x + off.x), y - (spec.goal.y + off.y)) <= threshold
               for (x, y, *_), off in zip(drones, spec.formation_offsets))
    stall_run = step = 0
    while not done and stall_run < STALL_PATIENCE and step < spec.max_steps:
        step += 1
        try:
            done, stalled, total = advance(step)
            # A sum of finite numbers can overflow too: only then look at each.
            if not (math.isfinite(total)
                    or all(map(math.isfinite, chain.from_iterable(drones)))):
                raise SingularityError("the state overflowed to a non-finite value")
        except SingularityError as exc:
            raise SingularityError(f"step {step}: {exc}") from None
        stall_run = stall_run + 1 if stalled else 0
    outcome = COMPLETED if done else STALLED if stall_run >= STALL_PATIENCE else MAX_STEPS
    return columns.trace(spec, controller, outcome, track, step + 1)
