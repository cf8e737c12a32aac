import pytest

from swarmpath.apf import LeaderState, leader_step
from swarmpath.baseline import baseline_step
from swarmpath.simulator import initial_baseline_state
from swarmpath.world import Obstacle, Vec2
from conftest import straight_spec


def test_initial_state_puts_drones_on_slots():
    spec = straight_spec()
    state = initial_baseline_state(spec)
    assert state.t == 0.0
    assert state.step == 0
    for drone, offset in zip(state.drones, spec.formation_offsets, strict=True):
        assert drone.position == spec.start + offset
        assert not drone.reached_goal


def test_drone_step_descends_toward_own_slot():
    spec = straight_spec(goal=Vec2(2.0, 0.0))
    slot_goal = spec.goal + spec.formation_offsets[1]
    drone = LeaderState(Vec2(0.4, -0.4))
    out, stalled = leader_step(drone, slot_goal, spec)
    assert not stalled
    # Slot goal is goal + offset[1] = (2.4, -0.4): straight +x from here.
    assert out.position.y == drone.position.y
    assert out.position.x == pytest.approx(0.4 + spec.apf.leader_speed * spec.dt)


def test_drone_latches_within_threshold():
    spec = straight_spec(goal=Vec2(2.0, 0.0))
    slot_goal = spec.goal + spec.formation_offsets[0]
    drone = LeaderState(Vec2(2.35, 0.4))
    out, stalled = leader_step(drone, slot_goal, spec)
    assert out.reached_goal
    assert out.position == drone.position
    assert not stalled
    again, _ = leader_step(out, slot_goal, spec)
    assert again.position == drone.position


def test_drones_avoid_obstacles_independently():
    spec = straight_spec(
        goal=Vec2(4.0, 0.0),
        obstacles=(Obstacle(Vec2(2.0, 0.15), 0.15, 0.5, 0.3),),
    )
    state = initial_baseline_state(spec)
    min_clear = float("inf")
    for _ in range(1200):
        state, stalled = baseline_step(state, spec)
        assert not stalled
        for drone in state.drones:
            min_clear = min(min_clear, spec.obstacles[0].surface_distance(drone.position))
        if all(d.reached_goal for d in state.drones):
            break
    assert all(d.reached_goal for d in state.drones)
    assert min_clear > 0.0


def test_baseline_step_reports_stall_only_when_nobody_moves():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    state = initial_baseline_state(spec)
    state, stalled = baseline_step(state, spec)
    assert not stalled
    # Everyone already on their slot goal: all latch, nobody moves, but that
    # is completion, not a stall.
    parked = straight_spec(goal=Vec2(0.0, 0.0))
    done, stalled = baseline_step(initial_baseline_state(parked), parked)
    assert not stalled
    assert all(d.reached_goal for d in done.drones)


def test_baseline_clock_advances():
    spec = straight_spec()
    state = initial_baseline_state(spec)
    state, _ = baseline_step(state, spec)
    assert state.step == 1
    assert state.t == pytest.approx(spec.dt)
