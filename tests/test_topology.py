import math

import pytest

from swarmpath.apf import SingularityError
from swarmpath.simulator import SWARMPATH, run
from swarmpath.topology import (
    LEADER,
    deflection_offset,
    initial_swarm_state,
    nearest_obstacle,
    swarm_step,
    update_link_mode,
)
from swarmpath.traceio import mode_cell
from swarmpath.world import Obstacle, ObstacleIndex, TopologyParams, Vec2
from conftest import one_pole_spec, straight_spec

OB = (
    Obstacle(Vec2(0.0, 0.0), 0.1, 0.6, 0.3),
    Obstacle(Vec2(5.0, 0.0), 0.1, 0.6, 0.3),
)
ROWS = tuple(ob.as_tuple() for ob in OB)
OB_INDEX = ObstacleIndex(OB)
TOPO = TopologyParams(k_impF=0.5, hysteresis=0.1, velocity_gain=0.0)


def test_link_mode_encoding_round_trip():
    # A drone's mode is the trace's code; mode_cell writes its CSV cell.
    assert mode_cell(LEADER) == "L"
    assert mode_cell(3) == "O3"
    # A trace reader recovers the obstacle index from the cell text.
    for index in (0, 7, 12):
        cell = mode_cell(index)
        assert cell[0] == "O" and int(cell[1:]) == index


def test_nearest_obstacle_picks_closest_surface():
    idx, dist = nearest_obstacle(1.0, 0.0, ROWS)
    assert idx == 0
    assert dist == pytest.approx(0.9)
    idx, _ = nearest_obstacle(4.0, 0.0, ROWS)
    assert idx == 1
    assert nearest_obstacle(0.0, 0.0, ()) is None


def test_nearest_obstacle_tie_takes_lower_index():
    idx, _ = nearest_obstacle(2.5, 0.0, ROWS)
    assert idx == 0


def test_mode_acquire_release_hysteresis():
    # Surface distance 0.9: far outside r_imp, stays leader-linked.
    assert update_link_mode(1.0, 0.0, LEADER, OB_INDEX, TOPO) == LEADER
    # Inside r_imp of obstacle 0: acquires it.
    mode = update_link_mode(0.35, 0.0, LEADER, OB_INDEX, TOPO)
    assert mode == 0
    # In the hysteresis band (r_imp .. r_imp*1.1]: holds the link.
    assert update_link_mode(0.42, 0.0, mode, OB_INDEX, TOPO) == 0
    # Beyond the release radius: back to the leader.
    assert update_link_mode(0.44, 0.0, mode, OB_INDEX, TOPO) == LEADER


def test_mode_no_direct_handoff_between_obstacles():
    # Linked to obstacle 0 but now nearest to obstacle 1: the release goes
    # to LeaderLinked first; the nearer obstacle is acquired a step later.
    x, y = 4.7, 0.0  # surface distances: 4.6 to ob 0, 0.2 to ob 1
    released = update_link_mode(x, y, 0, OB_INDEX, TOPO)
    assert released == LEADER
    reacquired = update_link_mode(x, y, released, OB_INDEX, TOPO)
    assert reacquired == 1


def test_deflection_offset_is_radial():
    off_x, off_y = deflection_offset(0.0, 0.25, 0.0, ROWS[0], TOPO)
    assert off_x == pytest.approx(0.0, abs=1e-15)
    assert off_y == pytest.approx(0.5 * 0.3)  # k_impF * r_imp, outward


def test_deflection_offset_scales_with_mean_speed():
    topo = TopologyParams(k_impF=0.5, hysteresis=0.1, velocity_gain=2.0)
    _, off_y = deflection_offset(0.0, 0.25, 0.5, ROWS[0], topo)
    assert off_y == pytest.approx(0.5 * (1.0 + 2.0 * 0.5) * 0.3)


def test_deflection_offset_at_center_raises():
    with pytest.raises(SingularityError):
        deflection_offset(0.0, 0.0, 0.0, ROWS[0], TOPO)


def test_deflection_offset_overflowing_near_center_raises():
    # 1e-310 m off the center the radial scale magnitude / dist overflows.
    with pytest.raises(SingularityError):
        deflection_offset(0.0, 1e-310, 0.0, ROWS[0], TOPO)


def test_desired_position_leader_linked_is_formation_slot():
    # A leader-linked drone at rest on its slot stays exactly on it: its
    # slot is the leader plus its offset, with no deflection term.
    spec = straight_spec()
    state, _ = swarm_step(initial_swarm_state(spec), spec)
    (lx, ly, _), drones = state
    x, y, _, _, mode, _ = drones[2]
    assert mode == LEADER
    assert Vec2(x, y) == Vec2(lx, ly) + spec.formation_offsets[2]


def test_pure_transport_keeps_deviations_exactly_zero():
    # No obstacles: slots translate rigidly with the leader, so the link
    # deviation never becomes nonzero and followers track exactly.
    spec = straight_spec(goal=Vec2(2.0, 0.0), max_steps=500)
    state = initial_swarm_state(spec)
    for _ in range(300):
        state, _ = swarm_step(state, spec)
    (lx, ly, _), drones = state
    for (x, y, vx, vy, _, _), offset in zip(drones, spec.formation_offsets, strict=True):
        assert Vec2(x, y) == Vec2(lx, ly) + offset
        assert (vx, vy) == (0.0, 0.0)


def test_swarm_step_advances_clock():
    # The state carries no clock; the trace's row n is step n at t = n * dt.
    spec = straight_spec(max_steps=1)
    _, stalled = swarm_step(initial_swarm_state(spec), spec)
    assert not stalled
    trace = run(spec, SWARMPATH)
    assert trace.n_frames == 2
    assert trace.t[1] == pytest.approx(spec.dt)


def test_formation_recovery_decays_monotonically():
    # Kick one follower off its slot with the leader parked at the goal;
    # the link must pull it back without oscillation growth.
    spec = straight_spec(start=Vec2(0.0, 0.0), goal=Vec2(0.0, 0.0))
    leader, drones = initial_swarm_state(spec)
    x, y, vx, vy, mode, mean_speed = drones[0]
    state = (leader, ((x + 0.5, y - 0.2, vx, vy, mode, mean_speed),) + drones[1:])
    slot = spec.goal + spec.formation_offsets[0]

    def deviation(state):
        x, y = state[1][0][:2]
        return math.hypot(x - slot.x, y - slot.y)

    dev = deviation(state)
    for _ in range(1500):
        state, _ = swarm_step(state, spec)
        new_dev = deviation(state)
        assert new_dev <= dev + 1e-12
        dev = new_dev
    assert dev < 1e-6


def test_obstacle_episode_acquires_and_releases():
    spec = one_pole_spec()
    trace = run(spec, SWARMPATH)
    assert trace.outcome == "completed"
    modes = {
        i: [mode_cell(c) for c in trace.modes[:, i]] for i in range(trace.n_drones)
    }
    linked = {i for i, seq in modes.items() if any(m != "L" for m in seq)}
    assert linked, "expected at least one follower to link to the pole"
    for i in linked:
        assert modes[i][-1] == "L"
        assert all(m in ("L", "O0") for m in modes[i])
