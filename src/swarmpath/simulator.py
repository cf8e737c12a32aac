"""Deterministic fixed-step simulation loop for both controllers.

run() keeps only the current state and records it after every step into the
trace's columns, so metrics and export read arrays and never re-integrate
anything: replaying the same spec gives identical columns.  The state of a run
is a pair (leader, drones) of plain floats and ints: the leader is an apf
agent (None for the baseline, like the trace's leader column), and the drones
are topology drones for the adaptive-link swarm or apf agents for the
baseline.  Either way a drone starts with its x, y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .world import ScenarioSpec
from .apf import SingularityError
from .topology import initial_swarm_state, swarm_step
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
    """The trace's arrays while a run fills them in place, grown by doubling."""

    def __init__(self, n_drones: int, linked: bool):
        self.rows = 0
        self.positions = np.empty((0, n_drones, 2))
        self.leader = np.empty((0, 2)) if linked else None
        self.modes = np.empty((0, n_drones), dtype=int) if linked else None

    def _each(self) -> list[np.ndarray]:
        return [c for c in (self.positions, self.leader, self.modes) if c is not None]

    def _resize(self, rows: int) -> None:
        # In place; safe without the reference check because no view of a
        # column exists before trace() hands them out.
        for col in self._each():
            col.resize((rows,) + col.shape[1:], refcheck=False)

    def record(self, state) -> None:
        n = self.rows
        if n == len(self.positions):
            self._resize(max(2 * n, 256))
        leader, drones = state
        self.positions[n, :, 0] = [d[0] for d in drones]
        self.positions[n, :, 1] = [d[1] for d in drones]
        if self.leader is not None:
            self.leader[n] = leader[:2]
            self.modes[n] = [d[4] for d in drones]
        self.rows = n + 1

    def trace(self, spec: ScenarioSpec, controller: str, outcome: str) -> SimulationTrace:
        self._resize(self.rows)
        t = np.arange(self.rows) * spec.dt  # bit for bit the step * dt of each row
        for col in [t] + self._each():
            col.flags.writeable = False
        return SimulationTrace(spec, controller, t, self.positions,
                               self.leader, self.modes, outcome)


def _finite(state) -> bool:
    """True when every number in the state is finite.

    One C-level sum decides the common case; only a sum that is not finite,
    which finite values can also reach by overflowing, looks at each number.
    """
    leader, drones = state
    numbers = list(chain(leader or (), *drones))
    return math.isfinite(sum(numbers)) or all(map(math.isfinite, numbers))


def run(spec: ScenarioSpec, controller: str = SWARMPATH) -> SimulationTrace:
    """Simulate until completion, a persistent stall, or max_steps.

    Frame 0 is the initial state and counts for completion (a swarm that
    starts on its goal slots completes in zero steps); the run stops on the
    first complete frame, so a completed trace ends on it.  Complete means
    every drone within goal_threshold of its goal slot.  Singularities raised
    by the controllers, and a state that is no longer finite, are raised as
    SingularityError with the offending step attached.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}, expected one of {CONTROLLERS}")
    if controller == SWARMPATH:
        state, step_fn = initial_swarm_state(spec), swarm_step
    else:
        state, step_fn = initial_baseline_state(spec), baseline_step
    columns = _Columns(len(spec.formation_offsets), linked=controller == SWARMPATH)
    slots = [(spec.goal.x + off.x, spec.goal.y + off.y) for off in spec.formation_offsets]
    threshold = spec.apf.goal_threshold
    stall_run = 0
    step = 0
    while True:
        columns.record(state)
        if all(math.hypot(d[0] - gx, d[1] - gy) <= threshold
               for d, (gx, gy) in zip(state[1], slots)):
            return columns.trace(spec, controller, COMPLETED)
        if stall_run >= STALL_PATIENCE:
            return columns.trace(spec, controller, STALLED)
        if step == spec.max_steps:
            return columns.trace(spec, controller, MAX_STEPS)
        step += 1
        try:
            state, stalled = step_fn(state, spec)
            if not _finite(state):
                raise SingularityError("the state overflowed to a non-finite value")
        except SingularityError as exc:
            raise SingularityError(f"step {step}: {exc}") from None
        stall_run = stall_run + 1 if stalled else 0
