import dataclasses

import pytest

from swarmpath.apf import SingularityError
from swarmpath.impedance import LinkDynamicState
from swarmpath.simulator import SWARMPATH, initial_swarm_state, run
from swarmpath.topology import (
    DroneState,
    LinkMode,
    deflection_offset,
    desired_position,
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
OB_INDEX = ObstacleIndex(OB)
TOPO = TopologyParams(k_impF=0.5, hysteresis=0.1, velocity_gain=0.0)


def test_link_mode_encoding_round_trip():
    # The trace's modes column holds the code; mode_cell writes its CSV cell.
    assert mode_cell(LinkMode.leader().code) == "L"
    assert mode_cell(LinkMode.obstacle(3).code) == "O3"
    # A trace reader recovers the obstacle index from the cell text.
    for index in (0, 7, 12):
        assert LinkMode.obstacle(index).code == index
        cell = mode_cell(LinkMode.obstacle(index).code)
        assert cell[0] == "O" and int(cell[1:]) == index
    with pytest.raises(ValueError):
        LinkMode.obstacle(-1)


def test_nearest_obstacle_picks_closest_surface():
    idx, dist = nearest_obstacle(Vec2(1.0, 0.0), OB)
    assert idx == 0
    assert dist == pytest.approx(0.9)
    idx, _ = nearest_obstacle(Vec2(4.0, 0.0), OB)
    assert idx == 1
    assert nearest_obstacle(Vec2(0.0, 0.0), ()) is None


def test_nearest_obstacle_tie_takes_lower_index():
    idx, _ = nearest_obstacle(Vec2(2.5, 0.0), OB)
    assert idx == 0


def at(p: Vec2, mode: LinkMode = LinkMode.leader()) -> DroneState:
    return DroneState(id=0, position=p, link=LinkDynamicState(), mode=mode, mean_speed=0.0)


def test_mode_acquire_release_hysteresis():
    # Surface distance 0.9: far outside r_imp, stays leader-linked.
    assert update_link_mode(at(Vec2(1.0, 0.0)), OB_INDEX, TOPO) == LinkMode.leader()
    # Inside r_imp of obstacle 0: acquires it.
    mode = update_link_mode(at(Vec2(0.35, 0.0)), OB_INDEX, TOPO)
    assert mode == LinkMode.obstacle(0)
    # In the hysteresis band (r_imp .. r_imp*1.1]: holds the link.
    assert update_link_mode(at(Vec2(0.42, 0.0), mode), OB_INDEX, TOPO) == LinkMode.obstacle(0)
    # Beyond the release radius: back to the leader.
    assert update_link_mode(at(Vec2(0.44, 0.0), mode), OB_INDEX, TOPO) == LinkMode.leader()


def test_mode_no_direct_handoff_between_obstacles():
    # Linked to obstacle 0 but now nearest to obstacle 1: the release goes
    # to LeaderLinked first; the nearer obstacle is acquired a step later.
    p = Vec2(4.7, 0.0)  # surface distances: 4.6 to ob 0, 0.2 to ob 1
    released = update_link_mode(at(p, LinkMode.obstacle(0)), OB_INDEX, TOPO)
    assert released == LinkMode.leader()
    reacquired = update_link_mode(at(p, released), OB_INDEX, TOPO)
    assert reacquired == LinkMode.obstacle(1)


def test_deflection_offset_is_radial():
    drone = at(Vec2(0.0, 0.25), LinkMode.obstacle(0))
    off = deflection_offset(drone, OB[0], TOPO)
    assert off.x == pytest.approx(0.0, abs=1e-15)
    assert off.y == pytest.approx(0.5 * 0.3)  # k_impF * r_imp, outward


def test_deflection_offset_scales_with_mean_speed():
    topo = TopologyParams(k_impF=0.5, hysteresis=0.1, velocity_gain=2.0)
    drone = DroneState(id=0, position=Vec2(0.0, 0.25), link=LinkDynamicState(),
                       mode=LinkMode.obstacle(0), mean_speed=0.5)
    off = deflection_offset(drone, OB[0], topo)
    assert off.y == pytest.approx(0.5 * (1.0 + 2.0 * 0.5) * 0.3)


def test_deflection_offset_at_center_raises():
    drone = at(Vec2(0.0, 0.0), LinkMode.obstacle(0))
    with pytest.raises(SingularityError):
        deflection_offset(drone, OB[0], TOPO)


def test_deflection_offset_overflowing_near_center_raises():
    # 1e-310 m off the center the radial scale magnitude / dist overflows.
    drone = at(Vec2(0.0, 1e-310), LinkMode.obstacle(0))
    with pytest.raises(SingularityError):
        deflection_offset(drone, OB[0], TOPO)


def test_desired_position_leader_linked_is_formation_slot():
    spec = straight_spec()
    state = initial_swarm_state(spec)
    drone = state.drones[2]
    assert desired_position(drone, state.leader, spec) == (
        state.leader.position + spec.formation_offsets[2]
    )


def test_pure_transport_keeps_deviations_exactly_zero():
    # No obstacles: slots translate rigidly with the leader, so the link
    # deviation never becomes nonzero and followers track exactly.
    spec = straight_spec(goal=Vec2(2.0, 0.0), max_steps=500)
    state = initial_swarm_state(spec)
    for _ in range(300):
        state, _ = swarm_step(state, spec)
    for drone in state.drones:
        assert drone.link.delta_x == Vec2(0.0, 0.0)
        assert drone.link.delta_v == Vec2(0.0, 0.0)
        assert drone.position == state.leader.position + spec.formation_offsets[drone.id]


def test_swarm_step_advances_clock():
    spec = straight_spec()
    state = initial_swarm_state(spec)
    nxt, stalled = swarm_step(state, spec)
    assert not stalled
    assert nxt.step == 1
    assert nxt.t == pytest.approx(spec.dt)


def test_formation_recovery_decays_monotonically():
    # Kick one follower off its slot with the leader parked at the goal;
    # the link must pull it back without oscillation growth.
    spec = straight_spec(start=Vec2(0.0, 0.0), goal=Vec2(0.0, 0.0))
    state = initial_swarm_state(spec)
    kicked = list(state.drones)
    kicked[0] = dataclasses.replace(
        kicked[0],
        position=kicked[0].position + Vec2(0.5, -0.2),
        link=LinkDynamicState(delta_x=Vec2(0.5, -0.2)),
    )
    state = dataclasses.replace(state, drones=tuple(kicked))
    dev = state.drones[0].link.delta_x.norm()
    for _ in range(1500):
        state, _ = swarm_step(state, spec)
        new_dev = state.drones[0].link.delta_x.norm()
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
