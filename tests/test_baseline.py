import dataclasses

import numpy as np
import pytest

from swarmpath.apf import leader_step
from swarmpath.baseline import baseline_step
from swarmpath.simulator import COMPLETED, CONVENTIONAL_APF, run
from swarmpath.world import Obstacle, Vec2
from conftest import straight_spec


def test_initial_state_puts_drones_on_slots():
    spec = straight_spec(max_steps=0)
    for offset in spec.formation_offsets:
        track = baseline_step(spec, offset)
        assert tuple(track.xy) == (spec.start.x + offset.x, spec.start.y + offset.y)
        assert track.goal == (spec.goal.x + offset.x, spec.goal.y + offset.y)
        assert track.rest is None


def test_drone_step_descends_toward_own_slot():
    spec = straight_spec(goal=Vec2(2.0, 0.0))
    offset = spec.formation_offsets[1]
    slot_goal = Vec2(spec.goal.x + offset.x, spec.goal.y + offset.y)
    drone = (0.4, -0.4, False)
    out, stalled = leader_step(drone, slot_goal.x, slot_goal.y, spec)
    assert not stalled
    # Slot goal is goal + offset[1] = (2.4, -0.4): straight +x from here.
    assert out[1] == drone[1]
    assert out[0] == pytest.approx(0.4 + spec.apf.leader_speed * spec.dt)


def test_drone_latches_within_threshold():
    spec = straight_spec(goal=Vec2(2.0, 0.0))
    offset = spec.formation_offsets[0]
    slot_goal = Vec2(spec.goal.x + offset.x, spec.goal.y + offset.y)
    drone = (2.35, 0.4, False)
    out, stalled = leader_step(drone, slot_goal.x, slot_goal.y, spec)
    assert out[2]
    assert out[:2] == drone[:2]
    assert not stalled
    again, _ = leader_step(out, slot_goal.x, slot_goal.y, spec)
    assert again[:2] == drone[:2]


def test_drones_avoid_obstacles_independently():
    spec = straight_spec(
        goal=Vec2(4.0, 0.0),
        obstacles=(Obstacle(Vec2(2.0, 0.15), 0.15, 0.5, 0.3),),
    )
    post = spec.obstacles[0]
    tracks = [baseline_step(spec, offset) for offset in spec.formation_offsets]
    for track in tracks:
        assert track.stall_step is None and track.fault is None and track.rest is not None
        rows = np.frombuffer(track.xy).reshape(-1, 2)
        assert np.all(np.hypot(*(rows - post.center.as_tuple()).T) - post.radius > 0.0)
    # The run's columns are the tracks' rows, each padded with its last; it
    # completes on the frame before the latest rest, where the last drone
    # that arrives is within.
    trace = run(spec, CONVENTIONAL_APF)
    assert trace.outcome == COMPLETED
    assert trace.n_frames == max(track.rest for track in tracks)
    for i, track in enumerate(tracks):
        rows = np.frombuffer(track.xy).reshape(-1, 2)[:trace.n_frames]
        assert trace.positions[:len(rows), i].tobytes() == rows.tobytes()
        assert (trace.positions[len(rows):, i] == rows[-1]).all()


def test_baseline_step_reports_stall_only_when_nobody_moves():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    track = baseline_step(dataclasses.replace(spec, max_steps=1), spec.formation_offsets[0])
    assert track.stall_step is None and track.rest is None
    assert track.row(1) != track.row(0)
    # Everyone already on their slot goal: all latch, nobody moves, but that
    # is completion, not a stall.
    parked = straight_spec(goal=Vec2(0.0, 0.0))
    for offset in parked.formation_offsets:
        track = baseline_step(dataclasses.replace(parked, max_steps=1), offset)
        assert track.stall_step is None and track.rest == 1
    trace = run(parked, CONVENTIONAL_APF)
    assert trace.outcome == COMPLETED and trace.n_frames == 1


def test_baseline_clock_advances():
    # The state carries no clock; the trace's row n is step n at t = n * dt.
    spec = straight_spec(max_steps=1)
    trace = run(spec, CONVENTIONAL_APF)
    assert trace.n_frames == 2
    assert trace.t[1] == pytest.approx(spec.dt)
