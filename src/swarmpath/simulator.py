"""Deterministic fixed-step simulation loop for both controllers.

run() produces a SimulationTrace holding every frame, so metrics and export
never re-integrate anything: replaying the same spec gives identical frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .world import ScenarioSpec, Vec2
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


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded run: spec, controller tag, all frames, and how it ended."""

    spec: ScenarioSpec
    controller: str
    frames: tuple  # SwarmState or BaselineState, frame n is step n
    outcome: str   # COMPLETED | MAX_STEPS | STALLED

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def n_drones(self) -> int:
        return len(self.spec.formation_offsets)

    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.frames])

    def leader_positions(self) -> np.ndarray | None:
        """(n_frames, 2) leader track, None for the baseline controller."""
        if self.controller != SWARMPATH:
            return None
        return np.array([f.leader.position.as_tuple() for f in self.frames])

    @cached_property
    def positions(self) -> np.ndarray:
        """(n_frames, n_drones, 2) read-only array of every drone position."""
        coords = (c for f in self.frames for d in f.drones for c in d.position.as_tuple())
        out = np.fromiter(coords, float, count=self.n_frames * self.n_drones * 2)
        out = out.reshape(self.n_frames, self.n_drones, 2)
        out.flags.writeable = False
        return out

    def drone_positions(self, drone: int) -> np.ndarray:
        """(n_frames, 2) read-only track of one drone, a view of positions."""
        return self.positions[:, drone]

    def drone_modes(self, drone: int) -> tuple[LinkMode, ...] | None:
        """Per-frame link modes, None for the baseline controller."""
        if self.controller != SWARMPATH:
            return None
        return tuple(f.drones[drone].mode for f in self.frames)

    def final_frame(self):
        return self.frames[-1]


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


def swarm_complete(frame, spec: ScenarioSpec) -> bool:
    """True when every drone sits within goal_threshold of its goal slot."""
    for i, off in enumerate(spec.formation_offsets):
        slot = spec.goal + off
        if frame.drones[i].position.dist(slot) > spec.apf.goal_threshold:
            return False
    return True


def run(spec: ScenarioSpec, controller: str = SWARMPATH) -> SimulationTrace:
    """Simulate until completion, a persistent stall, or max_steps.

    Frame 0 is the initial state and counts for completion (a swarm that
    starts on its goal slots completes in zero steps).  Singularities raised
    by the controllers are re-raised with the offending step attached.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"unknown controller {controller!r}, expected one of {CONTROLLERS}")
    if controller == SWARMPATH:
        frame, step_fn = initial_swarm_state(spec), swarm_step
    else:
        frame, step_fn = initial_baseline_state(spec), baseline_step
    frames = [frame]
    outcome = MAX_STEPS
    if swarm_complete(frame, spec):
        return SimulationTrace(spec, controller, tuple(frames), COMPLETED)
    stall_run = 0
    for step in range(spec.max_steps):
        try:
            frame, stalled = step_fn(frame, spec)
        except SingularityError as exc:
            raise SingularityError(f"step {step + 1}: {exc}") from None
        frames.append(frame)
        stall_run = stall_run + 1 if stalled else 0
        if swarm_complete(frame, spec):
            outcome = COMPLETED
            break
        if stall_run >= STALL_PATIENCE:
            outcome = STALLED
            break
    return SimulationTrace(spec, controller, tuple(frames), outcome)
