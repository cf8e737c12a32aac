import math
from array import array

import pytest

from swarmpath.apf import leader_step
from swarmpath.baseline import baseline_step, initial_baseline_state
from swarmpath.simulator import CONVENTIONAL_APF, run
from swarmpath.world import Obstacle, Vec2
from conftest import straight_spec


def test_initial_state_puts_drones_on_slots():
    spec = straight_spec()
    drones = initial_baseline_state(spec)
    for (x, y, reached), offset in zip(drones, spec.formation_offsets, strict=True):
        assert (x, y) == (spec.start.x + offset.x, spec.start.y + offset.y)
        assert not reached


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
    drones = initial_baseline_state(spec)
    post = spec.obstacles[0]
    min_clear = float("inf")
    for _ in range(1200):
        done, stalled, _ = baseline_step(drones, spec, array("d"))
        assert not stalled
        assert done == all(d[2] for d in drones)
        for x, y, _ in drones:
            min_clear = min(min_clear,
                            math.hypot(x - post.center.x, y - post.center.y) - post.radius)
        if all(d[2] for d in drones):
            break
    assert all(d[2] for d in drones)
    assert min_clear > 0.0


def test_baseline_step_reports_stall_only_when_nobody_moves():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    _, stalled, _ = baseline_step(initial_baseline_state(spec), spec, array("d"))
    assert not stalled
    # Everyone already on their slot goal: all latch, nobody moves, but that
    # is completion, not a stall.
    parked = straight_spec(goal=Vec2(0.0, 0.0))
    drones = initial_baseline_state(parked)
    done, stalled, _ = baseline_step(drones, parked, array("d"))
    assert not stalled
    assert all(d[2] for d in drones)
    assert done


def test_baseline_clock_advances():
    # The state carries no clock; the trace's row n is step n at t = n * dt.
    spec = straight_spec(max_steps=1)
    trace = run(spec, CONVENTIONAL_APF)
    assert trace.n_frames == 2
    assert trace.t[1] == pytest.approx(spec.dt)
