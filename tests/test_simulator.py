import dataclasses
import math

import numpy as np
import pytest

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
from swarmpath.metrics import leader_path_length
from swarmpath.sweep import SweepSpec
from swarmpath.topology import LeaderTrack
from swarmpath.world import ImpedanceParams, Obstacle, TopologyParams, Vec2, read_scenario
from conftest import SCENARIO_DIR, one_pole_spec, straight_spec, sweep_traces


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


def test_stalled_outcome_at_field_equilibrium(monkeypatch):
    # Start the leader exactly where attraction and repulsion cancel (found
    # by bisection); it never moves and the run gives up after the stall
    # patience.
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
    spec = straight_spec(start=Vec2(lo, 0.0), goal=goal, obstacles=(ob,), max_steps=4000)
    trace = run(spec, SWARMPATH)
    assert trace.outcome == STALLED
    # Stalled from step 1: frame 0 plus STALL_PATIENCE stalled steps.
    assert trace.n_frames == STALL_PATIENCE + 1
    # The stalled leader holds its row: every later row repeats it.
    assert np.array_equal(trace.leader, np.tile(spec.start.as_tuple(), (trace.n_frames, 1)))
    # Every point of a sweep reads the same stall off the shared leader track.
    result, traces = sweep_traces(SweepSpec("d", (12.0, 14.0), spec), monkeypatch)
    assert [r.outcome for r in result.runs] == [STALLED, STALLED]
    assert [t.n_frames for t in traces] == [STALL_PATIENCE + 1] * 2


def test_run_rejects_a_track_for_other_leader_inputs():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    for other in (dataclasses.replace(spec, goal=Vec2(1.5, 0.0)),
                  dataclasses.replace(spec, dt=0.02)):
        with pytest.raises(ValueError, match="leader inputs"):
            run(spec, SWARMPATH, LeaderTrack(other))
    with pytest.raises(ValueError):
        run(spec, CONVENTIONAL_APF, LeaderTrack(spec))


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


def test_leader_track_straight_line():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    track = trace.leader
    assert tuple(track[0]) == spec.start.as_tuple()
    final = Vec2(*track[-1])
    assert final.dist(spec.goal) <= spec.apf.goal_threshold + spec.apf.leader_speed * spec.dt
    assert leader_path_length(trace) == pytest.approx(
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
    assert leader_path_length(trace) > 3.9
    obs = spec.obstacles[0]
    clearances = [Vec2(*p).dist(obs.center) - obs.radius for p in trace.leader]
    assert min(clearances) > 0.0


def test_completion_counts_frame_zero():
    spec = straight_spec(goal=Vec2(0.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    assert trace.n_frames == 1


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
        gap = np.linalg.norm(sp.drone_positions(i) - base.drone_positions(i), axis=1)
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
