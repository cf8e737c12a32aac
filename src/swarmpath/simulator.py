"""Deterministic fixed-step simulation loop for both controllers.

run() keeps only the current state and records it after every step into the
trace's columns, so metrics and export read arrays and never re-integrate
anything: replaying the same spec gives identical columns.  The per-step
state types stay inside this loop and the controllers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .world import ScenarioSpec
from .apf import LeaderState, SingularityError
from .impedance import LinkDynamicState
from .topology import DroneState, LinkMode, SwarmState, swarm_step
from .baseline import BaselineState, baseline_step

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
        self.t = np.empty(0)
        self.positions = np.empty((0, n_drones, 2))
        self.leader = np.empty((0, 2)) if linked else None
        self.modes = np.empty((0, n_drones), dtype=int) if linked else None

    def _each(self) -> list[np.ndarray]:
        return [c for c in (self.t, self.positions, self.leader, self.modes) if c is not None]

    def _resize(self, rows: int) -> None:
        # In place; safe without the reference check because no view of a
        # column exists before trace() hands them out.
        for col in self._each():
            col.resize((rows,) + col.shape[1:], refcheck=False)

    def record(self, state) -> None:
        n = self.rows
        if n == len(self.t):
            self._resize(max(2 * n, 256))
        self.t[n] = state.t
        self.positions[n] = [d.position.as_tuple() for d in state.drones]
        if self.leader is not None:
            self.leader[n] = state.leader.position.as_tuple()
            self.modes[n] = [d.mode.code for d in state.drones]
        self.rows = n + 1

    def trace(self, spec: ScenarioSpec, controller: str, outcome: str) -> SimulationTrace:
        self._resize(self.rows)
        for col in self._each():
            col.flags.writeable = False
        return SimulationTrace(spec, controller, self.t, self.positions,
                               self.leader, self.modes, outcome)


def initial_swarm_state(spec: ScenarioSpec) -> SwarmState:
    """Swarm at rest on the start formation, all links zeroed and on the leader."""
    drones = tuple(
        DroneState(id=i, position=spec.start + off,
                   link=LinkDynamicState(), mode=LinkMode.leader())
        for i, off in enumerate(spec.formation_offsets)
    )
    return SwarmState(leader=LeaderState(spec.start), drones=drones, t=0.0, step=0)


def initial_baseline_state(spec: ScenarioSpec) -> BaselineState:
    drones = tuple(LeaderState(spec.start + off) for off in spec.formation_offsets)
    return BaselineState(drones=drones, t=0.0, step=0)


def swarm_complete(state, spec: ScenarioSpec) -> bool:
    """True when every drone sits within goal_threshold of its goal slot."""
    for i, off in enumerate(spec.formation_offsets):
        slot = spec.goal + off
        if state.drones[i].position.dist(slot) > spec.apf.goal_threshold:
            return False
    return True


def run(spec: ScenarioSpec, controller: str = SWARMPATH) -> SimulationTrace:
    """Simulate until completion, a persistent stall, or max_steps.

    Frame 0 is the initial state and counts for completion (a swarm that
    starts on its goal slots completes in zero steps); the run stops on the
    first complete frame, so a completed trace ends on it.  Singularities
    raised by the controllers are re-raised with the offending step attached.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}, expected one of {CONTROLLERS}")
    if controller == SWARMPATH:
        state, step_fn = initial_swarm_state(spec), swarm_step
    else:
        state, step_fn = initial_baseline_state(spec), baseline_step
    columns = _Columns(len(spec.formation_offsets), linked=controller == SWARMPATH)
    stall_run = 0
    while True:
        columns.record(state)
        if swarm_complete(state, spec):
            return columns.trace(spec, controller, COMPLETED)
        if stall_run >= STALL_PATIENCE:
            return columns.trace(spec, controller, STALLED)
        if state.step == spec.max_steps:
            return columns.trace(spec, controller, MAX_STEPS)
        try:
            state, stalled = step_fn(state, spec)
        except SingularityError as exc:
            raise SingularityError(f"step {state.step + 1}: {exc}") from None
        stall_run = stall_run + 1 if stalled else 0
