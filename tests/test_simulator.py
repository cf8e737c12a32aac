import dataclasses
import math
from array import array

import numpy as np
import pytest

from swarmpath import simulator
from swarmpath.apf import SingularityError
from swarmpath.simulator import (
    COMPLETED,
    CONVENTIONAL_APF,
    MAX_STEPS,
    STALL_PATIENCE,
    STALLED,
    SWARMPATH,
    run,
)
from swarmpath.metrics import path_length
from swarmpath.sweep import SweepSpec
from swarmpath.topology import DEFLECTION_FAULT, OVERFLOW_FAULT, LeaderTrack, swarm_step
from swarmpath.world import ImpedanceParams, Obstacle, TopologyParams, Vec2, read_scenario
from conftest import SCENARIO_DIR, lagging_spec, one_pole_spec, straight_spec, sweep_traces


def test_run_rejects_unknown_controller():
    with pytest.raises(ValueError):
        run(straight_spec(), "roomba")


def test_completed_run_basic_shape():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    assert trace.controller == SWARMPATH
    assert trace.n_drones == len(spec.formation_offsets)
    assert trace.n_frames <= spec.max_steps + 1
    assert trace.t[0] == 0.0
    assert np.all(np.diff(trace.t) > 0.0)
    assert trace.positions.shape == (trace.n_frames, trace.n_drones, 2)
    assert trace.leader is not None
    assert trace.leader.shape == (trace.n_frames, 2)
    assert trace.modes.shape == (trace.n_frames, trace.n_drones)


def test_baseline_trace_has_no_leader_or_modes():
    trace = run(straight_spec(goal=Vec2(1.0, 0.0)), CONVENTIONAL_APF)
    assert trace.outcome == COMPLETED
    assert trace.leader is None
    assert trace.modes is None


def test_max_steps_outcome():
    spec = straight_spec(goal=Vec2(50.0, 0.0), max_steps=20)
    for controller in (SWARMPATH, CONVENTIONAL_APF):
        trace = run(spec, controller)
        assert trace.outcome == MAX_STEPS
        assert trace.n_frames == 21


def equilibrium_spec():
    """A leader started exactly where attraction and repulsion cancel (found by bisection)."""
    from swarmpath.apf import total_force

    ob = Obstacle(Vec2(0.0, 0.0), 0.1, 10.0, 5.0)
    goal = Vec2(2.0, 0.0)
    params = straight_spec().apf

    def fx(x):
        return total_force(x, 0.0, goal.x, goal.y, (ob.as_tuple(),), params)[0]

    lo, hi = -0.2, -0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fx(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return straight_spec(start=Vec2(lo, 0.0), goal=goal, obstacles=(ob,), max_steps=4000)


def test_stalled_outcome_at_field_equilibrium(monkeypatch):
    # The leader never moves and the run gives up after the stall patience.
    spec = equilibrium_spec()
    trace = run(spec, SWARMPATH)
    assert trace.outcome == STALLED
    # Stalled from step 1: frame 0 plus STALL_PATIENCE stalled steps.
    assert trace.n_frames == STALL_PATIENCE + 1
    # The stalled leader holds its row: every later row repeats it.
    assert np.array_equal(trace.leader, np.tile(spec.start.as_tuple(), (trace.n_frames, 1)))
    # Every point of a sweep reads the same stall off the shared leader track.
    result, traces = sweep_traces(SweepSpec("d", (12.0, 14.0), spec), monkeypatch)
    assert [r["outcome"] for r in result.runs] == [STALLED, STALLED]
    assert [t.n_frames for t in traces] == [STALL_PATIENCE + 1] * 2


def test_run_rejects_a_track_for_other_leader_inputs():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    for other in (dataclasses.replace(spec, goal=Vec2(1.5, 0.0)),
                  dataclasses.replace(spec, dt=0.02)):
        with pytest.raises(ValueError, match="leader inputs"):
            run(spec, SWARMPATH, LeaderTrack(other))
    with pytest.raises(ValueError):
        run(spec, CONVENTIONAL_APF, LeaderTrack(spec))


def test_run_rejects_a_track_for_a_start_or_goal_of_another_signed_zero():
    # -0.0 == 0.0, so the specs compare equal, but the leader's rows keep the
    # sign: on its own track this run's leader column starts at -0.0.
    spec = straight_spec(start=Vec2(-0.0, 0.0), goal=Vec2(-0.0, 2.0),
                         formation_offsets=(Vec2(-0.0, -0.0),))
    assert np.signbit(run(spec, SWARMPATH).leader[0, 0])
    for other in (dataclasses.replace(spec, start=Vec2(0.0, 0.0)),
                  dataclasses.replace(spec, goal=Vec2(0.0, 2.0))):
        assert other == spec
        with pytest.raises(ValueError, match="leader inputs"):
            run(spec, SWARMPATH, LeaderTrack(other))


def test_run_accepts_a_track_for_another_impedance():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    stiff = dataclasses.replace(spec, impedance=ImpedanceParams(k=30.0))
    shared = run(spec, SWARMPATH, LeaderTrack(stiff))
    alone = run(spec, SWARMPATH)
    for column in ("t", "positions", "leader", "modes"):
        assert np.array_equal(getattr(shared, column), getattr(alone, column))
    assert shared.outcome == alone.outcome


def test_leader_singularity_is_raised_by_every_run_that_reaches_it():
    # The leader starts on an obstacle center: its first step has no
    # direction.  A shared track stores no row for that step, so a second run
    # on it raises the same error again.
    spec = straight_spec(start=Vec2(0.4, 0.4), goal=Vec2(3.0, 0.4),
                         obstacles=(Obstacle(Vec2(0.4, 0.4), 0.1, 0.5, 0.3),))
    track = LeaderTrack(spec)
    for _ in range(2):
        with pytest.raises(SingularityError) as err:
            run(spec, SWARMPATH, track)
        assert str(err.value) == "step 1: position coincides with obstacle center (0.4, 0.4)"


def test_drone_state_overflow_reports_its_step():
    # Drone 1 starts inside the post's r_imp, so it links at once and its slot
    # is pushed k_impF * r_imp ~ 5e307 m away; the stiff link's velocity
    # overflows on that first step.  The leader stays clear of the post and
    # finite, so the run's own finiteness check is what stops it.
    spec = straight_spec(
        goal=Vec2(3.0, 0.0),
        obstacles=(Obstacle(Vec2(0.4, 0.7), 0.1, 0.3, 0.3),),
        impedance=ImpedanceParams(k=1e4),
        topology=TopologyParams(k_impF=1.7e308),
    )
    assert all(map(math.isfinite, LeaderTrack(spec).row(1)))
    with pytest.raises(SingularityError) as err:
        run(spec, SWARMPATH)
    assert str(err.value) == "step 1: the state overflowed to a non-finite value"


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_a_leader_fault_after_several_chunks_is_raised_at_its_step(chunk, monkeypatch):
    # A post on the free leader's row 300 is out of its r_apf until the leader
    # lands on its center, so step 301 has no direction; the followers pass
    # 0.4 m off it.  A second post on drone 1's slot at row 200 links the
    # drone on its center, an earlier fault that is raised instead.
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    spec = straight_spec(goal=Vec2(3.0, 0.0))
    free = LeaderTrack(spec)
    lx, ly = free.row(300)
    post = Obstacle(Vec2(lx, ly), 0.001, 0.002, 0.002)
    leader_faults = dataclasses.replace(spec, obstacles=(post,))
    with pytest.raises(SingularityError) as err:
        run(leader_faults, SWARMPATH)
    assert str(err.value) == f"step 301: position coincides with obstacle center ({lx}, {ly})"
    off = spec.formation_offsets[0]
    sx, sy = free.row(200)[0] + off.x, free.row(200)[1] + off.y
    slot = Obstacle(Vec2(sx, sy), 0.001, 0.002, 0.002)
    with pytest.raises(SingularityError) as err:
        run(dataclasses.replace(spec, obstacles=(post, slot)), SWARMPATH)
    assert str(err.value) == (f"step 201: drone 1: 0 m from obstacle center ({sx}, {sy}), "
                              "direction undefined")
    # Drone 1 of the lagging swarm lands on a third post's center at row 350,
    # long after its leader has come to rest, and faults at step 351.  Each
    # round past the rest grows the run by chunk rows, so every chunk size
    # takes its own number of swarm_step calls to reach that step.
    lagging = lagging_spec()
    rest = LeaderTrack(lagging).rest
    fx, fy = run(lagging, SWARMPATH).positions[350, 0].tolist()
    on_drone = Obstacle(Vec2(fx, fy), 1e-7, 2e-7, 2e-7)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return swarm_step(*args)

    monkeypatch.setattr(simulator, "swarm_step", counted)
    with pytest.raises(SingularityError) as err:
        run(dataclasses.replace(lagging, obstacles=(*lagging.obstacles, on_drone)), SWARMPATH)
    assert str(err.value) == (f"step 351: drone 1: 0 m from obstacle center ({fx}, {fy}), "
                              "direction undefined")
    assert 351 - rest > 128
    rounds = {c: 1 + math.ceil((351 - rest) / c) for c in (1, 7, 128)}
    assert len(set(rounds.values())) == 3
    assert len(calls) == len(lagging.formation_offsets) * rounds[chunk]


@pytest.mark.parametrize("kind", [DEFLECTION_FAULT, OVERFLOW_FAULT])
def test_a_fault_past_the_leaders_rest_keeps_the_rows_before_its_step(kind, monkeypatch):
    # Under CHUNK 7 the lagging swarm runs on in rounds of 7 rows past its
    # leader's rest.  Drone 1 faults in one of them: on a post placed on its
    # row-350 center, whose link has no direction at step 351; or, handed an
    # infinite link rate at the start of the round from step 303, at step 304.
    # swarm_step returns no link, the drone's buffers hold its rows before
    # the fault's step, and the run raises that step.
    monkeypatch.setattr(simulator, "CHUNK", 7)
    spec = lagging_spec()
    rest = LeaderTrack(spec).rest
    fx, fy = run(spec, SWARMPATH).positions[350, 0].tolist()
    if kind == DEFLECTION_FAULT:
        post = Obstacle(Vec2(fx, fy), 1e-7, 2e-7, 2e-7)
        spec = dataclasses.replace(spec, obstacles=(*spec.obstacles, post))
    first = spec.formation_offsets[0].as_tuple()
    faults = []

    def recorded(link, last, track, offset, *args):
        positions, modes = args[-2:]
        start = len(modes) - 1
        if kind == OVERFLOW_FAULT and offset == first and start == 303:
            link = (math.inf, *link[1:])
        result = swarm_step(link, last, track, offset, *args)
        if result[1] is not None:
            faults.append((offset, start, result, len(positions), len(modes)))
        return result

    monkeypatch.setattr(simulator, "swarm_step", recorded)
    with pytest.raises(SingularityError) as err:
        run(spec, SWARMPATH)
    [(offset, start, result, held_xy, held)] = faults
    step = {DEFLECTION_FAULT: 351, OVERFLOW_FAULT: 304}[kind]
    text = {DEFLECTION_FAULT: f"0 m from obstacle center ({fx}, {fy}), direction undefined",
            OVERFLOW_FAULT: "the state overflowed to a non-finite value"}[kind]
    assert offset == first and rest < start < step
    assert result == (None, (kind, text))
    assert held == step and held_xy == 2 * held
    prefix = "drone 1: " if kind == DEFLECTION_FAULT else ""
    assert str(err.value) == f"step {step}: {prefix}{text}"


@pytest.mark.parametrize("settled", ["goal", "stall"])
def test_a_settled_leader_grows_its_rows_in_one_call(settled):
    # Past its fixed point the track appends every row a call asks for at
    # once; the bytes and the stall step equal those of growing row by row.
    spec = straight_spec(goal=Vec2(1.0, 0.0)) if settled == "goal" else equilibrium_spec()
    bulk, single = LeaderTrack(spec), LeaderTrack(spec)
    bulk.row(900)
    for n in range(1, 901):
        single.row(n)
    assert bulk.row(900) == bulk.row(899)
    assert bulk.xy.tobytes() == single.xy.tobytes()
    assert len(bulk.xy) == 2 * 901
    assert bulk.stall_step == single.stall_step
    assert (bulk.stall_step is None) == (settled == "goal")


def test_leader_track_straight_line():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    track = trace.leader
    assert tuple(track[0]) == spec.start.as_tuple()
    final = Vec2(*track[-1])
    assert final.dist(spec.goal) <= spec.apf.goal_threshold + spec.apf.leader_speed * spec.dt
    assert path_length(trace.leader) == pytest.approx(
        0.9, abs=2 * spec.apf.leader_speed * spec.dt)


def test_leader_track_moves_every_step_until_max_steps():
    spec = straight_spec(goal=Vec2(100.0, 0.0), max_steps=10)
    trace = run(spec, SWARMPATH)
    assert trace.outcome == MAX_STEPS
    track = trace.leader
    assert len(track) == 11
    assert np.all(np.diff(track[:, 0]) > 0.0)


def test_leader_track_detours_around_obstacle():
    spec = straight_spec(
        goal=Vec2(4.0, 0.0),
        obstacles=(Obstacle(Vec2(2.0, 0.05), 0.2, 0.8, 0.4),),
        max_steps=3000,
    )
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    assert path_length(trace.leader) > 3.9
    obs = spec.obstacles[0]
    clearances = [Vec2(*p).dist(obs.center) - obs.radius for p in trace.leader]
    assert min(clearances) > 0.0


def test_completion_counts_frame_zero():
    spec = straight_spec(goal=Vec2(0.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    assert trace.n_frames == 1


def test_a_run_complete_at_frame_zero_steps_no_follower(monkeypatch):
    # 1 m is below half an ulp of 1e200, so both drones start on their goal
    # slots while the leader has a metre to fly.
    spec = straight_spec(goal=Vec2(1.0, 0.0),
                         formation_offsets=(Vec2(1e200, 0.0), Vec2(-1e200, 0.0)))
    calls = []

    def recorded(*args):
        calls.append(args[1:3])
        return swarm_step(*args)

    monkeypatch.setattr(simulator, "swarm_step", recorded)
    track = LeaderTrack(spec)
    trace = run(spec, SWARMPATH, track)
    assert trace.outcome == COMPLETED and trace.n_frames == 1
    assert track.rest is not None and track.stall_step is None
    assert calls == []


def columns(*drones):
    """(F, D, 2) columns from each drone's list of (x, y) rows."""
    return np.array(drones, dtype=float).transpose(1, 0, 2)


STILL = [(0.0, 0.0)]


@pytest.mark.parametrize("moved_at, stall", [(1, 1 + STALL_PATIENCE),
                                             (40, 40 + STALL_PATIENCE),
                                             (STALL_PATIENCE, math.inf)])
def test_a_stall_starts_after_the_last_move(moved_at, stall):
    # Of 2 * STALL_PATIENCE rows, drone 2 moves only at step moved_at: the
    # first STALL_PATIENCE still steps in a row follow it, if the rows hold them.
    rows = 2 * STALL_PATIENCE
    moving = [(0.0, 0.0)] * moved_at + [(1.0, 0.0)] * (rows - moved_at)
    assert simulator._first_stall(columns(STILL * rows, moving)) == stall


def test_a_signed_zero_flip_is_a_still_step():
    flip = [(-0.0, 1.0)] + [(0.0, 1.0)] * STALL_PATIENCE
    assert simulator._first_stall(columns(flip)) == STALL_PATIENCE
    assert simulator._first_stall(columns(flip, STILL * (STALL_PATIENCE + 1))) == STALL_PATIENCE


@pytest.mark.parametrize("still, stall", [(STALL_PATIENCE, STALL_PATIENCE),
                                          (STALL_PATIENCE - 1, math.inf)])
def test_a_stall_needs_stall_patience_still_steps_in_a_row(still, stall):
    # Steps 1..still leave the drone where it was; every other step moves it,
    # and a still run that ends on the last row counts like any other.
    head = [(-float(n), 0.0) for n in range(5, 0, -1)]
    hold = [(0.0, 0.0)] * (still + 1)
    for tail in ([], [(1.0, 0.0), (2.0, 0.0)]):
        assert simulator._first_stall(columns(head + hold + tail)) == len(head) + stall


def test_completion_waits_for_a_drone_that_left_its_zone_to_come_back():
    # Drone 1 is within at frames 2 and 3, leaves, and is back from frame 6;
    # drone 2 is within from frame 4.
    goals = [(0.0, 0.0), (5.0, 5.0)]
    first = [(3.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.01), (0.0, 0.5), (0.3, 0.0),
             (0.0, 0.0), (0.0, 0.0)]
    second = [(5.0, 9.0)] * 4 + [(5.0, 5.0)] * 4
    assert simulator._first_complete(columns(first, second), goals, 0.05) == 6
    assert simulator._first_complete(columns(first[:6], second[:6]), goals, 0.05) == math.inf
    # A drone goal_threshold away along one axis is within; a hair more is not.
    assert simulator._first_complete(columns([(0.05, 0.0)]), goals[:1], 0.05) == 0
    assert simulator._first_complete(columns([(0.04, 0.04)]), goals[:1], 0.05) == math.inf


def test_completion_reads_only_the_rows_that_every_drone_holds():
    # Drone 1 faulted after row 3, so it holds rows 0..3; drone 2 holds 0..7.
    goals = [(0.0, 0.0), (1.0, 0.0)]
    short = array("d", [2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for within_from, complete in ((3, 3), (4, math.inf)):
        long = array("d", [9.0, 0.0] * within_from + [1.0, 0.0] * (8 - within_from))
        held = simulator._columns([short, long])
        assert held.shape == (4, 2, 2)
        assert simulator._first_complete(held, goals, 0.05) == complete


def test_same_spec_runs_are_identical():
    spec = one_pole_spec()
    a = run(spec, SWARMPATH)
    b = run(spec, SWARMPATH)
    for column in ("t", "positions", "leader", "modes"):
        assert np.array_equal(getattr(a, column), getattr(b, column))
    assert a.outcome == b.outcome


def test_swarmpath_equals_baseline_without_obstacles():
    spec = straight_spec(goal=Vec2(3.0, 0.0), max_steps=2000)
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    assert sp.outcome == base.outcome == COMPLETED
    assert sp.n_frames == base.n_frames
    for i in range(sp.n_drones):
        gap = np.linalg.norm(sp.positions[:, i] - base.positions[:, i], axis=1)
        assert gap.max() < 1e-12


def test_singularity_reports_step_index():
    # Drone 0 starts exactly on the obstacle center, so the very first step
    # acquires the link and then trips the radial-direction pole.
    spec = straight_spec(
        start=Vec2(0.0, 0.0),
        goal=Vec2(5.0, 0.0),
        obstacles=(Obstacle(Vec2(0.4, 0.4), 0.1, 0.5, 0.3),),
    )
    with pytest.raises(Exception) as err:
        run(spec, SWARMPATH)
    assert "step 1" in str(err.value)
    assert "drone 1:" in str(err.value)  # numbered from 1, as in trace files


@pytest.mark.parametrize("controller", [SWARMPATH, CONVENTIONAL_APF])
def test_no_vec2_is_built_inside_the_loop(controller, monkeypatch):
    # The step functions work on plain floats: a whole forest run builds no Vec2.
    spec = read_scenario(SCENARIO_DIR / "case2_forest.json")
    built = [0]
    post_init = Vec2.__post_init__

    def counted(vec):
        built[0] += 1
        post_init(vec)

    monkeypatch.setattr(Vec2, "__post_init__", counted)
    trace = run(spec, controller)
    assert trace.outcome == COMPLETED
    assert built[0] == 0
