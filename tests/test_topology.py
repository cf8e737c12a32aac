import math

import pytest

from swarmpath import topology
from swarmpath.apf import SingularityError
from swarmpath.impedance import link_coefficients
from swarmpath.simulator import SWARMPATH, run
from swarmpath.topology import (
    LEADER,
    LeaderTrack,
    nearest_obstacle,
    swarm_step,
    update_link_mode,
)
from swarmpath.traceio import mode_cell
from swarmpath.world import Obstacle, ObstacleIndex, TopologyParams, Vec2, read_scenario
from conftest import (SCENARIO_DIR, drone_state, follower_at, one_pole_spec, rest_state,
                      straight_spec)
from reference import deflection_offset

OB = (
    Obstacle(Vec2(0.0, 0.0), 0.1, 0.6, 0.3),
    Obstacle(Vec2(5.0, 0.0), 0.1, 0.6, 0.3),
)
ROWS = tuple(ob.as_tuple() for ob in OB)
OB_INDEX = ObstacleIndex(OB)
TOPO = TopologyParams(k_impF=0.5, hysteresis=0.1)


def stepper(spec):
    """A fresh LeaderTrack for spec, and step(drones, n) on it with spec's constants.

    step runs swarm_step over step n alone for each drone, with throwaway row
    buffers, and returns the new drones.
    """
    track = LeaderTrack(spec)
    coefficients = link_coefficients(spec.impedance, spec.dt)
    offsets = tuple((off.x, off.y) for off in spec.formation_offsets)

    def step(drones, n):
        track.row(n)
        new = []
        for drone, offset in zip(drones, offsets):
            link, positions, modes = follower_at(drone, n - 1)
            link, _ = swarm_step(link, n, track, offset, spec, coefficients, positions, modes)
            new.append(drone_state(link, positions, modes))
        return new

    return track, step


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


def test_link_rule_at_exactly_each_threshold():
    # Surface distances that equal a threshold exactly: the release test is a
    # strict >, so a link at exactly r_imp * (1 + hysteresis) holds, and the
    # acquire test a strict <, so a drone at exactly r_imp acquires nothing.
    # One ulp further out releases, one ulp further in acquires.
    post = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.25)
    spec = straight_spec(start=Vec2(0.0, -3.0), goal=Vec2(0.0, -4.0), obstacles=(post,),
                         topology=TopologyParams(k_impF=0.5, hysteresis=1.0))
    index, params = spec.obstacle_index, spec.topology
    release_x, acquire_x = 1.0, 0.75  # surface 0.5 == 0.25 * 2.0 and 0.25 == r_imp
    track, _ = stepper(spec)
    track.row(1)
    coefficients = link_coefficients(spec.impedance, spec.dt)

    def kernel_mode(x, mode):
        link, positions, modes = follower_at((x, 0.0, 0.0, 0.0, mode), 0)
        swarm_step(link, 1, track, (0.0, 0.0), spec, coefficients, positions, modes)
        return modes[-1]

    cases = [(release_x, 0, 0), (math.nextafter(release_x, 2.0), 0, LEADER),
             (acquire_x, LEADER, LEADER), (math.nextafter(acquire_x, 0.0), LEADER, 0)]
    for x, mode, expected in cases:
        assert update_link_mode(x, 0.0, mode, index, params) == expected
        assert kernel_mode(x, mode) == expected


def test_mode_no_direct_handoff_between_obstacles():
    # Linked to obstacle 0 but now nearest to obstacle 1: the release goes
    # to LeaderLinked first; the nearer obstacle is acquired a step later.
    x, y = 4.7, 0.0  # surface distances: 4.6 to ob 0, 0.2 to ob 1
    released = update_link_mode(x, y, 0, OB_INDEX, TOPO)
    assert released == LEADER
    reacquired = update_link_mode(x, y, released, OB_INDEX, TOPO)
    assert reacquired == 1


def test_deflection_offset_is_radial():
    off_x, off_y = deflection_offset(0.0, 0.25, ROWS[0], TOPO)
    assert off_x == pytest.approx(0.0, abs=1e-15)
    assert off_y == pytest.approx(0.5 * 0.3)  # k_impF * r_imp, outward


def test_deflection_offset_is_k_impF_times_r_imp_at_any_distance():
    # Off the axes too: k_impF * r_imp along the ray from the center through
    # the drone, whatever the drone's distance.
    topo = TopologyParams(k_impF=1.5, hysteresis=0.1)
    for x, y in ((0.3, 0.4), (-0.06, 0.08), (-3.0, -4.0)):
        off_x, off_y = deflection_offset(x, y, ROWS[0], topo)
        assert math.hypot(off_x, off_y) == pytest.approx(1.5 * 0.3)
        assert off_x * y == pytest.approx(off_y * x)  # parallel to (x, y)
        assert off_x * x + off_y * y > 0.0  # and outward


def test_deflection_offset_at_center_raises():
    with pytest.raises(SingularityError):
        deflection_offset(0.0, 0.0, ROWS[0], TOPO)


def test_deflection_offset_overflowing_near_center_raises():
    # 1e-310 m off the center the radial scale magnitude / dist overflows.
    with pytest.raises(SingularityError):
        deflection_offset(0.0, 1e-310, ROWS[0], TOPO)


def test_desired_position_leader_linked_is_formation_slot():
    # A leader-linked drone at rest on its slot stays exactly on it: its
    # slot is the leader plus its offset, with no deflection term.
    spec = straight_spec()
    track, step = stepper(spec)
    drones = step(rest_state(spec), 1)
    lx, ly = track.row(1)
    x, y, _, _, mode = drones[2]
    assert mode == LEADER
    offset = spec.formation_offsets[2]
    assert (x, y) == (lx + offset.x, ly + offset.y)


def test_pure_transport_keeps_deviations_exactly_zero():
    # No obstacles: slots translate rigidly with the leader, so the link
    # deviation never becomes nonzero and followers track exactly.
    spec = straight_spec(goal=Vec2(2.0, 0.0), max_steps=500)
    track, step = stepper(spec)
    drones = rest_state(spec)
    for n in range(1, 301):
        drones = step(drones, n)
    lx, ly = track.row(300)
    for (x, y, vx, vy, _), offset in zip(drones, spec.formation_offsets, strict=True):
        assert (x, y) == (lx + offset.x, ly + offset.y)
        assert (vx, vy) == (0.0, 0.0)


def test_swarm_step_advances_clock():
    # The state carries no clock; the trace's row n is step n at t = n * dt.
    spec = straight_spec(max_steps=1)
    track, step = stepper(spec)
    step(rest_state(spec), 1)
    assert track.stall_step is None or track.stall_step > 1
    trace = run(spec, SWARMPATH)
    assert trace.n_frames == 2
    assert trace.t[1] == pytest.approx(spec.dt)


def test_formation_recovery_decays_monotonically():
    # Kick one follower off its slot with the leader parked at the goal;
    # the link must pull it back without oscillation growth.
    spec = straight_spec(start=Vec2(0.0, 0.0), goal=Vec2(0.0, 0.0))
    _, step = stepper(spec)
    drones = rest_state(spec)
    x, y, vx, vy, mode = drones[0]
    drones = [(x + 0.5, y - 0.2, vx, vy, mode)] + drones[1:]
    slot = spec.formation_offsets[0]  # the goal is the origin

    def deviation(drones):
        x, y = drones[0][:2]
        return math.hypot(x - slot.x, y - slot.y)

    dev = deviation(drones)
    for n in range(1, 1501):
        drones = step(drones, n)
        new_dev = deviation(drones)
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


def test_the_kernel_acquires_through_nearest_obstacle(monkeypatch):
    # swarm_step's leader-linked acquire is update_link_mode's rule: it asks
    # nearest_obstacle for the nearest row of the drone's link cell, so a
    # counting wrapper sees every acquire on the gate and moves no byte.
    spec = read_scenario(SCENARIO_DIR / "case1_gate.json")
    plain = run(spec, SWARMPATH)
    acquires = []

    def counted(x, y, obstacles):
        near = nearest_obstacle(x, y, obstacles)
        acquires.append(near[1] < obstacles[near[0]][4])
        return near

    monkeypatch.setattr(topology, "nearest_obstacle", counted)
    trace = run(spec, SWARMPATH)
    for column in ("positions", "modes", "leader"):
        assert getattr(trace, column).tobytes() == getattr(plain, column).tobytes()
    entered = (trace.modes[1:] != LEADER) & (trace.modes[:-1] == LEADER)
    assert sum(acquires) == entered.sum() > 0
    assert len(acquires) > sum(acquires)
