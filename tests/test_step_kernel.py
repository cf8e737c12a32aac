"""The fused kernels against a reference run built from the public helpers.

swarm_step runs one follower over a range of steps, apf.descend grows one
descent path (the leader's, or a baseline drone's from its start slot toward
its goal slot), and simulator.run composes each controller's outcome from
the drones' tracks.  The reference below rebuilds both controllers' runs
step by step, one drone at a time, from update_link_mode, deflection_offset
and link_step (the swarm) and leader_step (the leader and the baseline),
with the run loop written out again, so the kernels and the drone-major
composition cannot drift from the helpers: columns must match bit for bit,
and outcomes and error messages exactly.  Fixed cases pin the link scan's
tie-break, the signed zeros of link_step's force terms, the order of faults
that random posts almost never reach, the rows a swarm_step call keeps when
it faults after stepping, the goal test's edge, where a follower's ride on
its slot (many steps at once) must end, and descent steps that leave a drone
where it was without a stall flag.  Runs that share one LeaderTrack, and so
its followers' ride tables, must each equal a run on a track of its own.
"""

import dataclasses
import functools
import json
import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from swarmpath.apf import NON_FINITE, SingularityError, leader_step, total_force
from swarmpath.impedance import link_coefficients, link_step
from swarmpath import simulator
from swarmpath.simulator import (CHUNK, COMPLETED, CONTROLLERS, CONVENTIONAL_APF, MAX_STEPS,
                                 STALL_PATIENCE, STALLED, SWARMPATH, run)
from swarmpath.topology import (BOX_ROWS, DEFLECTION_FAULT, LEADER, OVERFLOW_FAULT, LeaderTrack,
                                swarm_step, update_link_mode)
from swarmpath.world import (ApfParams, ImpedanceParams, Obstacle, ScenarioSpec,
                             ScenarioValidationError, TopologyParams, Vec2, load_scenario,
                             read_scenario, validate_spec)
from conftest import (SCENARIO_DIR, drone_state, follower_at, force_cell, grid16_forest_doc,
                      lagging_spec, one_pole_spec, rest_state, straight_spec)
from reference import deflection_offset


def equilibrium_x(gx, obstacles, apf):
    """An x on the line y = 0 before obstacles[0] where the field's x-component vanishes.

    obstacles[0] sits on y = 0 between the origin side and a goal (gx, 0.0),
    so attraction wins far from it and repulsion at its surface.
    """
    cx, _, radius, r_apf, _ = obstacles[0]
    lo, hi = cx - radius - r_apf - 0.01, cx - radius - 1e-4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total_force(mid, 0.0, gx, 0.0, obstacles, apf)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def impedances(draw, dt):
    """Link (m, d, k) from over- to under-damped, some with w * dt in (pi, 3 pi / 2)."""
    m = draw(st.floats(0.5, 3.0))
    if draw(st.integers(0, 3)) == 0:  # both phi00 and phi01 negative
        d = draw(st.floats(0.05, 1.0))
        w = draw(st.floats(1.01 * math.pi / dt, 1.49 * math.pi / dt))
        return ImpedanceParams(m=m, d=d, k=m * (w * w + (d / (2.0 * m)) ** 2))
    k = draw(st.floats(1.0, 200.0))
    return ImpedanceParams(m=m, d=draw(st.floats(0.1, 6.0)) * math.sqrt(m * k), k=k)


@st.composite
def small_specs(draw):
    """A few posts around the path, 1 to 5 drones and a step limit of 1 to 600.

    One draw in four starts the leader, and a baseline drone with it, on a
    field equilibrium before a post on its axis, where it stalls at step 1,
    so runs past STALL_PATIENCE stall: the swarm's from the leader's stall,
    the baseline's once its other drones have stopped too.  The links range
    over impedances(), and half the draws take a k_impF from 1e307 to
    1.7e308, whose deflections overflow the state or lose their direction
    after the drones have moved apart.
    """
    offsets = draw(st.lists(st.tuples(st.sampled_from([-0.4, 0.0, 0.4]),
                                      st.sampled_from([-0.4, 0.0, 0.4])),
                            min_size=1, max_size=5, unique=True))
    trapped = draw(st.integers(0, 3)) == 0
    if trapped and (0.0, 0.0) not in offsets:  # a baseline drone trapped with the leader
        offsets[draw(st.integers(0, len(offsets) - 1))] = (0.0, 0.0)
    goal = Vec2(draw(st.floats(0.5, 1.5)), 0.0 if trapped else draw(st.floats(-0.5, 0.5)))
    posts = []
    for i in range(draw(st.integers(1, 2) if trapped else st.integers(0, 4))):
        radius = draw(st.floats(0.05, 0.2))
        r_imp = radius + draw(st.floats(0.1, 0.5))
        r_apf = r_imp + draw(st.floats(0.0, 0.5))
        center = Vec2(draw(st.floats(0.2, 1.8)), draw(st.floats(-0.6, 0.6)))
        if trapped and i == 0:  # on the axis, between the start and the goal
            center = Vec2(goal.x - draw(st.floats(0.1, 0.4)), 0.0)
        elif not trapped and draw(st.integers(0, 9)) == 0:
            center = Vec2(*offsets[0])  # on a drone's start: its first step has no direction
        posts.append(Obstacle(center, radius, r_apf, r_imp))
    dt = draw(st.sampled_from([0.02, 0.05]))
    spec = ScenarioSpec(
        start=Vec2(0.0, 0.0),
        goal=goal,
        obstacles=tuple(posts),
        formation_offsets=tuple(Vec2(x, y) for x, y in offsets),
        impedance=draw(impedances(dt)),
        topology=TopologyParams(k_impF=draw(st.floats(0.0, 1.0) if draw(st.booleans())
                                            else st.floats(1e307, 1.7e308)),
                                hysteresis=draw(st.floats(0.0, 0.3))),
        dt=dt,
        max_steps=draw(st.sampled_from([600, 250, 10, 1])),
    )
    if trapped:
        rows = tuple(obs.as_tuple() for obs in posts)
        spec = dataclasses.replace(spec, start=Vec2(equilibrium_x(goal.x, rows, spec.apf), 0.0))
    try:
        validate_spec(spec)
    except ScenarioValidationError:
        assume(False)
    return spec


class ReferenceLeader:
    """A descent path from leader_step, one call per step, like LeaderTrack's rows.

    row(n) is the (x, y) after step n; stall_step is the first step that
    returned the stall flag.  A step whose leader_step raises, or whose row is
    not finite, raises on every request that reaches it.
    """

    def __init__(self, spec, start=None, goal=None):
        self.spec = spec
        self.goal = goal or (spec.goal.x, spec.goal.y)
        start = start or (spec.start.x, spec.start.y)
        self.agent = (*start, False)
        self.rows = [start]
        self.stall_step = None

    def row(self, n):
        while len(self.rows) <= n:
            agent, stalled = leader_step(self.agent, *self.goal, self.spec)
            if not all(map(math.isfinite, agent[:2])):
                raise SingularityError(NON_FINITE)
            if stalled and self.stall_step is None:
                self.stall_step = len(self.rows)
            self.agent = agent
            self.rows.append(agent[:2])
        return self.rows[n]


def swarm_reference(spec):
    """The swarm's drones and step(n), one drone at a time; step returns whether
    it was still: the leader did not move under == and is short of its goal."""
    track = ReferenceLeader(spec)
    coefficients = link_coefficients(spec.impedance, spec.dt)
    index, params = spec.obstacle_index, spec.topology
    drones = [(spec.start.x + o.x, spec.start.y + o.y, 0.0, 0.0, LEADER)
              for o in spec.formation_offsets]

    def step(n):
        lx, ly = track.row(n - 1)
        nlx, nly = track.row(n)
        for i, o in enumerate(spec.formation_offsets):
            x, y, vx, vy, mode = drones[i]
            mode = update_link_mode(x, y, mode, index, params)
            slot_x, slot_y = lx + o.x, ly + o.y
            new_x, new_y = nlx + o.x, nly + o.y
            if mode != LEADER:
                try:
                    ex, ey = deflection_offset(x, y, index.rows[mode], params)
                except SingularityError as exc:
                    raise SingularityError(f"drone {i + 1}: {exc}") from None
                slot_x, slot_y = slot_x + ex, slot_y + ey
                new_x, new_y = new_x + ex, new_y + ey
            dx, dy, vx, vy = link_step(x - slot_x, y - slot_y, vx, vy, 0.0, 0.0, coefficients)
            drones[i] = (new_x + dx, new_y + dy, vx, vy, mode)
        return (nlx, nly) == (lx, ly) and not track.agent[2]  # the leader after step n

    return drones, step


def baseline_reference(spec):
    """The baseline's drones and step(n), one drone at a time; step returns whether
    it was still: no drone moved under == and one is short of its goal."""
    drones = [(spec.start.x + o.x, spec.start.y + o.y, False) for o in spec.formation_offsets]

    def step(n):
        moved = unfinished = False
        for i, o in enumerate(spec.formation_offsets):
            new, _ = leader_step(drones[i], spec.goal.x + o.x, spec.goal.y + o.y, spec)
            unfinished = unfinished or not new[2]
            moved = moved or new[:2] != drones[i][:2]
            drones[i] = new
        return unfinished and not moved

    return drones, step


def reference_run(spec, controller):
    """(outcome, positions, modes) of the run, or the message of its SingularityError.

    The run stalls once STALL_PATIENCE steps in a row were still."""
    drones, step = (swarm_reference if controller == SWARMPATH else baseline_reference)(spec)
    slots = [(spec.goal.x + o.x, spec.goal.y + o.y) for o in spec.formation_offsets]
    positions, modes = [], []

    def record():
        positions.append([d[:2] for d in drones])
        modes.append([d[4] for d in drones] if controller == SWARMPATH else None)

    record()
    still_run, n = 0, 0
    while True:
        if all(math.hypot(d[0] - gx, d[1] - gy) <= spec.apf.goal_threshold
               for d, (gx, gy) in zip(drones, slots)):
            outcome = COMPLETED
        elif still_run >= STALL_PATIENCE:
            outcome = STALLED
        elif n == spec.max_steps:
            outcome = MAX_STEPS
        else:
            n += 1
            try:
                still = step(n)
                if not all(math.isfinite(v) for d in drones for v in d):
                    raise SingularityError("the state overflowed to a non-finite value")
            except SingularityError as exc:
                return f"step {n}: {exc}"
            still_run = still_run + 1 if still else 0
            record()
            continue
        return outcome, np.array(positions), modes


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=small_specs())
def test_fused_step_matches_the_helpers(spec):
    for controller in CONTROLLERS:
        expected = reference_run(spec, controller)
        try:
            trace = run(spec, controller)
        except SingularityError as exc:
            assert str(exc) == expected
            continue
        outcome, positions, modes = expected
        assert trace.outcome == outcome
        assert trace.positions.tobytes() == positions.tobytes()
        if controller == SWARMPATH:
            assert np.array_equal(trace.modes, np.array(modes))
        else:
            assert trace.modes is None


def run_result(spec, track=None):
    """The swarm run's outcome and column bytes, or its SingularityError's text."""
    try:
        trace = run(spec, SWARMPATH, track)
    except SingularityError as exc:
        return str(exc)
    return (trace.outcome, trace.positions.tobytes(), trace.modes.tobytes(),
            trace.leader.tobytes())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=small_specs(), data=st.data())
def test_two_impedances_on_one_shared_track_match_fresh_runs(spec, data):
    # A track shares its followers' ride tables between the runs that read
    # it; whichever link runs first, each run equals one on its own track.
    other = dataclasses.replace(spec, impedance=data.draw(impedances(spec.dt)))
    fresh = [run_result(spec), run_result(other)]
    for order in ((0, 1), (1, 0)):
        track = LeaderTrack(spec)
        for i in order:
            assert run_result((spec, other)[i], track) == fresh[i]


def descent_slots(spec):
    """(start, goal) of the leader's path (None, None) and of each baseline drone's."""
    return [(None, None)] + [((spec.start.x + o.x, spec.start.y + o.y),
                              (spec.goal.x + o.x, spec.goal.y + o.y))
                             for o in spec.formation_offsets]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=small_specs())
def test_descent_tracks_match_leader_step(spec):
    for start, goal in descent_slots(spec):
        track, reference = LeaderTrack(spec, start, goal), ReferenceLeader(spec, start, goal)
        try:
            expected = [reference.row(n) for n in range(spec.max_steps + 1)]
        except SingularityError as exc:
            with pytest.raises(SingularityError) as err:
                track.row(spec.max_steps)
            assert str(err.value) == str(exc)
            assert bytes(track.xy) == np.array(reference.rows).tobytes()
            continue
        assert track.row(spec.max_steps) == expected[-1]
        assert bytes(track.xy) == np.array(expected).tobytes()
        assert track.stall_step == reference.stall_step


def reference_track(spec, last):
    """(row bytes, rest, stall_step, fault) of the leader's descent through row
    last, from ReferenceLeader: rest is the first row that repeats the one
    before bit for bit, and the rows stop there; fault is (step, text)."""
    reference, fault = ReferenceLeader(spec), None
    try:
        reference.row(last)
    except SingularityError as exc:
        fault = (len(reference.rows), str(exc))
    rows = np.array(reference.rows)
    rest = next((n for n in range(1, len(rows)) if rows[n].tobytes() == rows[n - 1].tobytes()),
                None)
    return rows[:len(rows) if rest is None else rest + 1].tobytes(), rest, \
        reference.stall_step, fault


def free_leader_post(row):
    """straight_spec to (3, 0) with a tiny post on the free leader's row: the step after lands
    on its center."""
    spec = straight_spec(goal=Vec2(3.0, 0.0))
    post = Obstacle(Vec2(*LeaderTrack(spec).row(row)), 0.001, 0.002, 0.002)
    return dataclasses.replace(spec, obstacles=(post,))


@pytest.mark.parametrize("last", [0, 1, 300, None])
@pytest.mark.parametrize("name", ["latches", "stalls", "faults", "moves"])
def test_a_track_descends_through_its_last_row_on_construction(name, last):
    if name == "stalls":
        obstacles = (Obstacle(Vec2(1.0, 0.0), 0.1, 0.4, 0.3),)
        x = equilibrium_x(1.5, tuple(o.as_tuple() for o in obstacles), ApfParams())
        spec = ScenarioSpec(start=Vec2(x, 0.0), goal=Vec2(1.5, 0.0), obstacles=obstacles,
                            max_steps=600)
    else:
        spec = {"latches": lambda: straight_spec(goal=Vec2(1.0, 0.0)),
                "faults": lambda: free_leader_post(200),
                "moves": lambda: straight_spec(goal=Vec2(100.0, 0.0), max_steps=400)}[name]()
    validate_spec(spec)
    k = spec.max_steps if last is None else last
    spec = dataclasses.replace(spec, max_steps=k)
    track = LeaderTrack(spec)
    xy, rest, stall_step, fault = reference_track(spec, k)
    assert bytes(track.xy) == xy
    assert (track.rest, track.stall_step) == (rest, stall_step)
    assert (None if track.fault is None else (track.fault[0], track.fault[2])) == fault
    if name == "faults" and k >= 201:
        assert track.fault[0] == 201 < k
    held = len(track.xy) // 2
    if fault is not None:
        with pytest.raises(SingularityError, match=re.escape(fault[1])):
            track.row(held)
    elif rest is None:
        with pytest.raises(IndexError):
            track.row(held)
    else:
        assert track.row(k + 5) == track.row(rest)
        assert len(track.xy) == 2 * (k + 6)
    assert bytes(track.xy)[:len(xy)] == xy


def assert_descent_matches_reference(spec, start=None, goal=None):
    """The descent's LeaderTrack through max_steps, checked row by row against leader_step's."""
    track, reference = LeaderTrack(spec, start, goal), ReferenceLeader(spec, start, goal)
    expected = [reference.row(n) for n in range(spec.max_steps + 1)]
    assert track.row(spec.max_steps) == expected[-1]
    assert bytes(track.xy) == np.array(expected).tobytes()
    assert track.stall_step == reference.stall_step
    return track


@pytest.mark.parametrize("goal_x, n", [(1.0, 50), (5e-324, 0)])
def test_a_descent_goal_threshold_away_along_x_latches(goal_x, n):
    # On y = 0.0 with no obstacle the descent stays on the line, so its
    # distance to the goal is |x - goal_x| exactly.  A threshold of that
    # distance at row n puts the goal test on its edge there.  A subnormal
    # threshold times 1 + 1e-9 rounds to itself, so there the prefilter's
    # bound is the threshold and only <= passes it.
    x = LeaderTrack(straight_spec(goal=Vec2(goal_x, 0.0))).row(n)[0]
    spec = straight_spec(goal=Vec2(goal_x, 0.0), apf=ApfParams(goal_threshold=goal_x - x),
                         max_steps=400)
    validate_spec(spec)
    assert math.hypot(x - goal_x, 0.0) == spec.apf.goal_threshold
    track = assert_descent_matches_reference(spec)
    assert track.rest == n + 1 and track.stall_step is None
    assert track.row(n + 1) == track.row(n) == (x, 0.0)


def test_a_descent_within_goal_threshold_along_x_only_does_not_latch():
    # The descent runs straight at a goal above its line, so at row n it is
    # half as far from the goal along y as along x.  A threshold of that
    # |x - goal_x| passes |x - goal_x| but not the hypot: the descent steps on.
    n = 50
    x, y = LeaderTrack(straight_spec(goal=Vec2(1.0, 0.5))).row(n)
    spec = straight_spec(goal=Vec2(1.0, 0.5), apf=ApfParams(goal_threshold=abs(x - 1.0)),
                         max_steps=400)
    assert abs(x - 1.0) <= spec.apf.goal_threshold < math.hypot(x - 1.0, y - 0.5)
    track = assert_descent_matches_reference(spec)
    assert track.row(n) == (x, y) and track.row(n + 1) != (x, y)
    assert track.rest > n + 1 and track.stall_step is None


def test_a_descent_entering_a_force_cell_along_y_alone_gets_its_force():
    # The goal is straight above the start, so x stays 0.0 until the post
    # acts, and the descent enters the post's first force cell (0, 1) from
    # (0, 0), which lists nothing, by a change of y alone.
    post = Obstacle(Vec2(0.3, 1.0), 0.1, 0.5, 0.3)
    spec = straight_spec(goal=Vec2(0.0, 2.0), obstacles=(post,), max_steps=800)
    index = spec.obstacle_index
    assert index.cell == 0.3
    assert force_cell(index, 0.0, 0.0) == () and force_cell(index, 0.0, 0.3) == (post.as_tuple(),)
    track = assert_descent_matches_reference(spec)
    rows = np.frombuffer(track.xy).reshape(-1, 2)
    first = int(np.argmax(rows[:, 0] != 0.0))
    assert first > 0 and 0.3 < rows[first - 1, 1] < 0.6
    assert track.rest is not None and track.stall_step is None
    assert math.hypot(*(rows[-1] - (0.0, 2.0))) <= spec.apf.goal_threshold


@pytest.mark.parametrize("first_y", [0.3, -0.3])
def test_mirrored_posts_tie_and_the_lower_index_is_acquired(first_y):
    # The field is symmetric about y = 0, so the leader and the one drone on
    # it stay on y = 0 exactly, where both posts' surfaces are equally far.
    post = dict(radius=0.1, r_apf=0.3, r_imp=0.25)
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(2.0, 0.0),
                        obstacles=(Obstacle(Vec2(1.0, first_y), **post),
                                   Obstacle(Vec2(1.0, -first_y), **post)),
                        formation_offsets=(Vec2(0.0, 0.0),), max_steps=600)
    validate_spec(spec)
    trace = run(spec, SWARMPATH)
    outcome, positions, modes = reference_run(spec, SWARMPATH)
    assert trace.outcome == outcome
    assert trace.positions.tobytes() == positions.tobytes()
    assert np.array_equal(trace.modes, np.array(modes))
    acquired = int(np.argmax(trace.modes[:, 0] != LEADER))
    assert acquired > 0
    assert trace.modes[acquired, 0] == 0
    x, y = trace.positions[acquired - 1, 0]
    assert y == 0.0
    assert [math.hypot(x - o.center.x, y - o.center.y) for o in spec.obstacles] == \
        [math.hypot(x - 1.0, 0.3)] * 2


def test_the_zero_force_terms_of_link_step_are_kept():
    # link_step adds g0 * 0.0 to the position update; g0 > 0 here, so the
    # term is +0.0 and turns a -0.0 update into +0.0.  With w * dt in
    # (pi, 3 pi / 2) both phi00 and phi01 are negative, so a drone resting on
    # its slot at x = -0.0, behind a leader stalled at x = -0.0, gets
    # -0.0 + -0.0 before that term.
    obs = Obstacle(Vec2(0.0, 1.0), 0.1, 10.0, 0.15)
    base = ScenarioSpec(start=Vec2(-0.0, 0.0), goal=Vec2(-0.0, 2.0), obstacles=(obs,),
                        formation_offsets=(Vec2(-0.0, -0.0),),
                        impedance=ImpedanceParams(m=1.0, d=0.1, k=1.0), dt=4.0,
                        max_steps=300)
    p00, p01, *_ = link_coefficients(base.impedance, base.dt)
    assert p00 < 0.0 and p01 < 0.0
    lo, hi = 0.0, 0.8  # where repulsion cancels attraction on x = -0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total_force(-0.0, mid, -0.0, 2.0, (obs.as_tuple(),), base.apf)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    spec = dataclasses.replace(base, start=Vec2(-0.0, lo))
    validate_spec(spec)
    trace = run(spec, SWARMPATH)
    outcome, positions, modes = reference_run(spec, SWARMPATH)
    assert trace.outcome == outcome == STALLED
    assert trace.positions.tobytes() == positions.tobytes()
    assert [math.copysign(1.0, x) for x in trace.positions[:3, 0, 0]] == [-1.0, 1.0, 1.0]


def posts_on(*centres):
    """Small posts centred on the given points, out of the leader's reach from the origin."""
    return tuple(Obstacle(Vec2(*c), 0.1, 0.3, 0.3) for c in centres)


def test_two_drones_on_post_centres_name_the_lower_drone():
    # Drones 1 and 2 both link to the post they start on at step 1, whose
    # deflection has no direction: step-major order meets drone 1 first.
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(3.0, 0.0),
                        obstacles=posts_on((0.4, 0.4), (0.4, -0.4)))
    validate_spec(spec)
    with pytest.raises(SingularityError) as err:
        run(spec, SWARMPATH)
    assert str(err.value) == reference_run(spec, SWARMPATH)
    assert str(err.value).startswith("step 1: drone 1: 0 m from obstacle center (0.4, 0.4)")


def test_a_later_drone_faulting_first_is_raised_at_its_step():
    # Drone 2 faults at step 1 while drone 1 flies on.  The followers run
    # drone-major, so drone 1's track is computed first and further, but the
    # run raises drone 2's step-1 fault.
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(3.0, 0.0),
                        obstacles=posts_on((0.4, -0.4)))
    validate_spec(spec)
    with pytest.raises(SingularityError) as err:
        run(spec, SWARMPATH)
    assert str(err.value) == reference_run(spec, SWARMPATH)
    assert str(err.value).startswith("step 1: drone 2: 0 m from obstacle center (0.4, -0.4)")
    alone = dataclasses.replace(spec, formation_offsets=spec.formation_offsets[:1])
    assert run(alone, SWARMPATH).outcome == COMPLETED


def test_baseline_drones_on_post_centres_name_the_lower_drones_post():
    # Drones 1 and 2 both start on a post's centre, where the field has no
    # direction: step-major order meets drone 1 first.
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(3.0, 0.0),
                        obstacles=posts_on((0.4, 0.4), (0.4, -0.4)))
    validate_spec(spec)
    with pytest.raises(SingularityError) as err:
        run(spec, CONVENTIONAL_APF)
    assert str(err.value) == reference_run(spec, CONVENTIONAL_APF)
    assert str(err.value) == "step 1: position coincides with obstacle center (0.4, 0.4)"


def test_a_later_baseline_drone_faulting_first_is_raised_at_its_step():
    # Drone 2 faults at step 1 while drone 1, whose track is grown first,
    # flies on to its goal slot.
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(3.0, 0.0),
                        obstacles=posts_on((0.4, -0.4)))
    validate_spec(spec)
    with pytest.raises(SingularityError) as err:
        run(spec, CONVENTIONAL_APF)
    assert str(err.value) == reference_run(spec, CONVENTIONAL_APF)
    assert str(err.value) == "step 1: position coincides with obstacle center (0.4, -0.4)"
    alone = dataclasses.replace(spec, formation_offsets=spec.formation_offsets[:1])
    assert run(alone, CONVENTIONAL_APF).outcome == COMPLETED


def test_a_baseline_singularity_ranks_before_an_overflow_at_its_step():
    # dt * leader_speed overflows, so drone 1's first step leaves a state that
    # is not finite; at the same step drone 2 sits on a post's centre.
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                        obstacles=posts_on((0.4, -0.4)), apf=ApfParams(leader_speed=1.7e308),
                        dt=1.5)
    validate_spec(spec)
    for offsets, text in ((spec.formation_offsets, "position coincides with obstacle center "
                                                   "(0.4, -0.4)"),
                          (spec.formation_offsets[:1], NON_FINITE)):
        one = dataclasses.replace(spec, formation_offsets=offsets)
        with pytest.raises(SingularityError) as err:
            run(one, CONVENTIONAL_APF)
        assert str(err.value) == reference_run(one, CONVENTIONAL_APF) == f"step 1: {text}"


def test_a_baseline_stall_waits_for_every_drone_to_stop():
    # Drone 1 starts on the field's equilibrium before a post on its axis and
    # stalls at step 1; drone 2 flies on to its goal slot.  Nobody moves from
    # drone 2's rest on, and the run stalls STALL_PATIENCE - 1 steps later.
    obstacles = (Obstacle(Vec2(1.0, 0.0), 0.1, 0.4, 0.3),)
    x = equilibrium_x(1.5, tuple(o.as_tuple() for o in obstacles), ApfParams())
    spec = ScenarioSpec(start=Vec2(x, 0.0), goal=Vec2(1.5, 0.0), obstacles=obstacles,
                        formation_offsets=(Vec2(0.0, 0.0), Vec2(0.0, 0.8)), max_steps=600)
    validate_spec(spec)
    trapped, flier = (LeaderTrack(spec, start, goal) for start, goal in descent_slots(spec)[1:])
    assert trapped.stall_step == trapped.rest == 1
    assert flier.stall_step is None and flier.rest > 100
    trace = run(spec, CONVENTIONAL_APF)
    outcome, positions, _ = reference_run(spec, CONVENTIONAL_APF)
    assert trace.outcome == outcome == STALLED
    assert trace.n_frames == flier.rest + STALL_PATIENCE
    assert trace.positions.tobytes() == positions.tobytes()


@pytest.mark.parametrize("cut, outcome", [(0, COMPLETED), (1, MAX_STEPS)])
def test_a_baseline_within_on_its_last_step_completes(cut, outcome):
    # The goal test runs before a step moves, so a track grown through
    # max_steps has not yet tested its last row; the run does.
    spec = straight_spec()
    end = run(spec, CONVENTIONAL_APF).n_frames - 1
    short = dataclasses.replace(spec, max_steps=end - cut)
    trace = run(short, CONVENTIONAL_APF)
    expected, positions, _ = reference_run(short, CONVENTIONAL_APF)
    assert trace.outcome == expected == outcome
    assert trace.positions.tobytes() == positions.tobytes()


def assert_both_match_reference(spec, expected):
    """Both controllers' runs equal the reference's, with the outcomes and frame counts given."""
    for controller, (outcome, frames) in zip((CONVENTIONAL_APF, SWARMPATH), expected):
        trace = run(spec, controller)
        reference, positions, _ = reference_run(spec, controller)
        assert trace.outcome == reference == outcome
        assert trace.n_frames == frames
        assert trace.positions.tobytes() == positions.tobytes()


def test_a_step_below_half_an_ulp_leaves_the_drone_without_a_stall_flag():
    # At x = 1e6 a step of dt * leader_speed = 1e-11 m is below half an ulp
    # (5.8e-11 m), so every drone and the leader stay put bit for bit with no
    # stall flag.  Each track rests from step 1 short of its goal, so both
    # controllers stall STALL_PATIENCE - 1 steps later.
    spec = ScenarioSpec(start=Vec2(1e6, 0.0), goal=Vec2(1e6 + 1.0, 0.0),
                        apf=ApfParams(leader_speed=1e-9), max_steps=150)
    validate_spec(spec)
    assert_both_match_reference(spec, [(STALLED, STALL_PATIENCE + 1)] * 2)
    for start, goal in descent_slots(spec):
        track = LeaderTrack(spec, start, goal)
        assert (track.rest, track.stall_step) == (1, 1)
        x, y = track.row(1)
        assert math.hypot(x - track.goal[0], y - track.goal[1]) > spec.apf.goal_threshold


def test_a_signed_zero_step_did_not_move_but_is_no_fixed_point():
    # Drone 1 starts at x = -0.0 below its goal slot: its first step adds
    # +0.0 to x, which turns it into 0.0, and 1e-11 m to y = 1e6, below half
    # an ulp, so its row is == the one before but not bit for bit; its
    # second step leaves it bit for bit.  The leader does the same, and drone
    # 2 stays put bit for bit from step 1.  Every track rests from step 1,
    # so both runs stall at step STALL_PATIENCE, not a step after it.
    spec = ScenarioSpec(start=Vec2(-0.0, 1e6), goal=Vec2(-0.0, 1e6 + 1.0),
                        formation_offsets=(Vec2(-0.0, 0.0), Vec2(0.4, 0.0)),
                        apf=ApfParams(leader_speed=1e-9), max_steps=150)
    validate_spec(spec)
    assert_both_match_reference(spec, [(STALLED, STALL_PATIENCE + 1)] * 2)
    tracks = [LeaderTrack(spec, start, goal) for start, goal in descent_slots(spec)]
    assert [t.rest for t in tracks] == [1, 1, 1]
    # The rows of the tracks that flip: step 1 is == step 0 though not bit
    # for bit, and step 2, their fixed point, leaves it bit for bit.
    for track in tracks[:2]:
        rows = np.frombuffer(track.xy).reshape(-1, 2)
        assert len(rows) == 3 and (rows[1] == rows[0]).all()
        assert rows[0].tobytes() != rows[1].tobytes() == rows[2].tobytes()
    assert np.signbit(run(spec, CONVENTIONAL_APF).positions[:3, 0, 0]).tolist() == \
        [True, False, False]


@pytest.mark.parametrize("name", ["case1_gate.json", "case2_forest.json"])
def test_a_completed_run_grows_its_track_at_most_one_chunk_past_its_end(name, scenario_dir):
    spec = read_scenario(scenario_dir / name)
    track = LeaderTrack(spec)
    trace = run(spec, SWARMPATH, track)
    assert trace.outcome == COMPLETED
    assert 0 <= len(track.xy) // 2 - trace.n_frames <= CHUNK


@pytest.mark.parametrize("name", ["case1_gate.json", "case2_forest.json"])
def test_a_completed_run_steps_its_followers_at_most_one_chunk_past_its_end(name, scenario_dir,
                                                                             monkeypatch):
    spec = read_scenario(scenario_dir / name)
    reached = []  # the last step of each swarm_step call

    def recorded(*args):
        result = swarm_step(*args)
        reached.append(len(args[-1]) - 1)
        return result

    monkeypatch.setattr(simulator, "swarm_step", recorded)
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    assert 0 <= max(reached) - (trace.n_frames - 1) <= CHUNK


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_drones_that_leave_their_goal_zones_complete_when_all_are_back(chunk, monkeypatch):
    # Drone 2 is first within at frame 212 and drone 1 at frame 321, but both
    # posts' links carry them out of their zones again; the run completes on
    # the first frame at which both are within at once, after the leader's
    # fixed point, so in a later chunk.
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    spec = ScenarioSpec(
        start=Vec2(0.0, 0.0), goal=Vec2(1.5, 0.0),
        obstacles=(Obstacle(Vec2(1.2502090845511118, -0.5915068838377157), 0.05, 0.35,
                            0.1915229240835461),
                   Obstacle(Vec2(1.0174163404078795, 0.45472776818340255), 0.05, 0.35,
                            0.34651672531009264)),
        formation_offsets=(Vec2(0.0, 0.4), Vec2(0.0, -0.4)),
        impedance=ImpedanceParams(d=1.5344245101712124),
        apf=ApfParams(goal_threshold=0.05, leader_speed=1.0),
        topology=TopologyParams(k_impF=0.6148911742410684), max_steps=2000)
    validate_spec(spec)
    track = LeaderTrack(spec)
    trace = run(spec, SWARMPATH, track)
    outcome, positions, modes = reference_run(spec, SWARMPATH)
    assert trace.outcome == outcome == COMPLETED and trace.n_frames - 1 == 403
    assert trace.positions.tobytes() == positions.tobytes()
    assert np.array_equal(trace.modes, np.array(modes))
    assert track.rest < 403 - chunk
    slots = [(spec.goal.x + o.x, spec.goal.y + o.y) for o in spec.formation_offsets]
    for drone, first in ((0, 321), (1, 212)):
        gx, gy = slots[drone]
        within = [math.hypot(x - gx, y - gy) <= spec.apf.goal_threshold
                  for x, y in trace.positions[:, drone].tolist()]
        assert within.index(True) == first
        assert not all(within[first:])


def reference_rows(spec, steps, drones=None, start=0):
    """Every drone's (x, y) after each step start..steps, from the helpers.

    drones, when given, replaces the reference's state after step start.
    """
    state, step = swarm_reference(spec)
    if drones is not None:
        state[:] = drones
    rows = [[d[:2] for d in state]]
    for n in range(start + 1, steps + 1):
        step(n)
        rows.append([d[:2] for d in state])
    return np.array(rows)


def assert_matches_reference(spec):
    trace = run(spec, SWARMPATH)
    outcome, positions, modes = reference_run(spec, SWARMPATH)
    assert trace.outcome == outcome
    assert trace.positions.tobytes() == positions.tobytes()
    assert np.array_equal(trace.modes, np.array(modes))
    return trace


@functools.cache
def shipped_reference(name):
    spec = read_scenario(SCENARIO_DIR / name)
    return spec, reference_run(spec, SWARMPATH)


@functools.cache
def lagging_reference():
    spec = lagging_spec()
    return spec, reference_run(spec, SWARMPATH)


@pytest.mark.parametrize("chunk", [1, 7, 128])
@pytest.mark.parametrize("name", ["case1_gate.json", "case2_forest.json"])
def test_every_chunk_size_matches_the_helpers(name, chunk, monkeypatch):
    # Each follower runs through the leader's whole path in one call; past
    # its fixed point the leader's rows are repeated at least chunk rows at
    # a time.
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    spec, (outcome, positions, modes) = shipped_reference(name)
    trace = run(spec, SWARMPATH)
    assert trace.outcome == outcome == COMPLETED
    assert trace.positions.tobytes() == positions.tobytes()
    assert np.array_equal(trace.modes, np.array(modes))
    # The lagging swarm completes more than 128 rows past its leader's rest,
    # so every chunk size grows it over its own number of rounds, each one
    # swarm_step call per follower.
    spec, (outcome, positions, modes) = lagging_reference()
    calls = []

    def counted(*args):
        calls.append(args[1])
        return swarm_step(*args)

    monkeypatch.setattr(simulator, "swarm_step", counted)
    track = LeaderTrack(spec)
    trace = run(spec, SWARMPATH, track)
    end = trace.n_frames - 1
    assert trace.outcome == outcome == COMPLETED and end - track.rest > 128
    assert trace.positions.tobytes() == positions.tobytes()
    assert np.array_equal(trace.modes, np.array(modes))
    rounds = {c: 1 + math.ceil((end - track.rest) / c) for c in (1, 7, 128)}
    assert len(set(rounds.values())) == 3
    assert len(calls) == trace.n_drones * rounds[chunk]


def test_an_acquire_on_the_first_step_of_a_call():
    # A call that ends one step short of drone 1's first acquire leaves the
    # drone at rest on its slot; the next call acquires on its first step.
    spec = one_pole_spec()
    trace = assert_matches_reference(spec)
    acquire = next(n for n, row in enumerate(trace.modes) if row[0] != LEADER)
    assert acquire > 1
    last = trace.n_frames - 1
    track = LeaderTrack(spec)
    track.row(last)
    link, positions, modes = follower_at(rest_state(spec)[0], 0)
    for stop in (acquire - 1, last):
        link, fault = swarm_step(link, stop, track, spec.formation_offsets[0].as_tuple(), spec,
                                 link_coefficients(spec.impedance, spec.dt), positions, modes)
        assert (len(modes) - 1, fault) == (stop, None)
        if stop < last:
            assert drone_state(link, positions, modes)[2:5] == (0.0, 0.0, LEADER)
    assert bytes(positions) == trace.positions[:, 0].tobytes()
    assert modes.tolist() == trace.modes[:, 0].tolist()
    assert modes[acquire - 1] == LEADER != modes[acquire]


def within_steps(rows, first, goal, threshold):
    """The steps first + i at which the completion rule finds one drone's row rows[i]
    within threshold of goal."""
    return [first + i for i in range(len(rows))
            if simulator._first_complete(rows[i:i + 1].reshape(1, 1, 2), [goal], threshold) == 0]


@pytest.mark.parametrize("vx, rides, to_within", [(0.0, True, False), (0.0, True, True),
                                                  (-0.0, False, False)],
                         ids=["ride", "ride_to_a_within_step", "loop"])
def test_a_call_lists_every_within_step(vx, rides, to_within):
    # At rest on its slot from frame 0 the drone rides all the way to stop,
    # and swarm_step runs no step; with vx = -0.0 the zero-force update turns
    # the rate into +0.0, so the loop steps it.  The rows hold every
    # within-step, and a call that stops on one holds none after it.
    spec = straight_spec(formation_offsets=(Vec2(0.0, 0.4),))
    last = 400
    drone = (*rest_state(spec)[0][:2], vx, 0.0, LEADER)
    rows = reference_rows(spec, last, [drone])
    goal_x, goal_y = spec.goal.x, spec.goal.y + 0.4
    expected = [n for n, (x, y) in enumerate(rows[:, 0].tolist())
                if n and math.hypot(x - goal_x, y - goal_y) <= spec.apf.goal_threshold]
    assert 1 < len(expected) < last
    track = LeaderTrack(spec)
    track.row(last)
    stop = expected[len(expected) // 2] if to_within else last
    link, positions, modes = follower_at(drone, 0)
    coefficients = link_coefficients(spec.impedance, spec.dt)
    if rides:
        assert track.ride((0.0, 0.4), stop, coefficients, positions, modes) is None
        assert len(modes) - 1 == stop
    link, fault = swarm_step(link, stop, track, (0.0, 0.4), spec, coefficients,
                             positions, modes)
    assert ((0.0, 0.4) in track.ride_tables) == rides
    assert (len(modes) - 1, fault) == (stop, None)
    assert within_steps(np.frombuffer(positions).reshape(-1, 2)[1:], 1, (goal_x, goal_y),
                        spec.apf.goal_threshold) == [n for n in expected if n <= stop]
    assert tuple(positions[-2:]) == tuple(rows[stop, 0])
    assert bytes(positions) == rows[:stop + 1, 0].tobytes()
    assert list(modes) == [LEADER] * (stop + 1)


@pytest.mark.parametrize("linked", [False, True])
def test_a_drone_goal_threshold_away_along_x_at_a_subnormal_threshold_is_within(linked):
    # The leader starts 5e-324 m from its goal along x and latches there, so
    # a drone on offset (0, 0) stays at x = 0.0, its goal slot 5e-324 away.
    # A subnormal threshold times 1 + 1e-9 rounds to itself, so there the
    # goal prefilter's bound is the threshold and only <= passes it.  At
    # rest from frame 0 the drone rides; linked to a post with no
    # deflection, swarm_step's loop steps it.
    post = dict(radius=0.1, r_apf=4.0, r_imp=4.0)
    spec = straight_spec(goal=Vec2(5e-324, 0.0), apf=ApfParams(goal_threshold=5e-324),
                         obstacles=(Obstacle(Vec2(0.0, 3.0), **post),
                                    Obstacle(Vec2(0.0, -3.0), **post)) if linked else (),
                         formation_offsets=(Vec2(0.0, 0.0),),
                         topology=TopologyParams(k_impF=0.0))
    validate_spec(spec)
    drone = (0.0, 0.0, 0.0, 0.0, 0 if linked else LEADER)
    rows = reference_rows(spec, 1, [drone])
    assert math.hypot(rows[1, 0, 0] - 5e-324, rows[1, 0, 1]) == spec.apf.goal_threshold
    track = LeaderTrack(spec)
    track.row(10)
    link, positions, modes = follower_at(drone, 0)
    coefficients = link_coefficients(spec.impedance, spec.dt)
    if not linked:
        assert track.ride((0.0, 0.0), 1, coefficients, positions, modes) is None
        assert len(modes) - 1 == 1
    link, fault = swarm_step(link, 1, track, (0.0, 0.0), spec, coefficients, positions, modes)
    within = within_steps(np.frombuffer(positions).reshape(-1, 2)[1:], 1, (5e-324, 0.0),
                          spec.apf.goal_threshold)
    assert (len(modes) - 1, within, fault) == (1, [1], None)
    assert bytes(positions)[16:] == rows[1, 0].tobytes()
    assert list(modes)[1:] == [0 if linked else LEADER]


def test_a_ride_stops_within_a_wide_r_imp_that_it_does_not_acquire():
    # Post 1's r_imp reaches the drone's path, but post 0, with a small
    # r_imp, is nearer wherever it does, so the drone acquires nothing.  Its
    # ride still hands over to the loop on the first step whose slot before
    # it is within post 1's r_imp, and the loop steps on exactly.
    near = Obstacle(Vec2(1.5, 0.9), 0.05, 0.1, 0.1)
    wide = Obstacle(Vec2(1.5, 1.2), 0.1, 0.8, 0.8)
    spec = straight_spec(goal=Vec2(3.0, 0.0), obstacles=(near, wide),
                         formation_offsets=(Vec2(0.0, 0.4),))
    validate_spec(spec)
    track = LeaderTrack(spec)
    trace = run(spec, SWARMPATH, track)
    outcome, positions, modes = reference_run(spec, SWARMPATH)
    assert trace.outcome == outcome == COMPLETED
    assert trace.positions.tobytes() == positions.tobytes()
    assert np.array_equal(trace.modes, np.array(modes))
    assert (trace.modes == LEADER).all()
    slots = (trace.leader + (0.0, 0.4)).tolist()
    assert trace.positions[:, 0].tolist() == slots
    reach = [math.hypot(x - 1.5, y - 1.2) - 0.1 < 0.8 for x, y in slots]
    assert sum(reach) > 100
    assert track.ride_tables[(0.0, 0.4)] == reach.index(True) + 1


@st.composite
def ride_fields(draw):
    """A spec with posts of mixed r_imp, some near the drone's start slot, the
    offset of that drone, and a number of fixed-point rows to pad the track by."""
    offset = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    goal = Vec2(draw(st.floats(0.5, 3.0)), draw(st.floats(-1.0, 1.0)))
    posts = []
    for _ in range(draw(st.integers(0, 6))):
        radius = draw(st.floats(0.01, 0.2))
        r_imp = draw(st.sampled_from([0.05, 0.2, 0.8])) * draw(st.floats(0.5, 1.5))
        if draw(st.integers(0, 3)) == 0:  # near the start slot, mostly ahead of it
            center = (offset[0] + draw(st.floats(-0.3, 1.5)),
                      offset[1] + draw(st.floats(-1.0, 1.0)))
        else:  # beside the slot's way to its goal
            along = draw(st.floats(0.2, 1.0))
            center = (offset[0] + along * goal.x,
                      offset[1] + along * goal.y + draw(st.floats(-1.0, 1.0)))
        posts.append(Obstacle(Vec2(*center), radius, r_imp + draw(st.floats(0.0, 0.3)), r_imp))
    spec = straight_spec(goal=goal, obstacles=tuple(posts),
                         dt=draw(st.sampled_from([0.01, 0.05])),
                         formation_offsets=(Vec2(*offset),))
    return spec, offset, draw(st.sampled_from([0, 1, 63, 64, 200]))


def reference_stop(rows, offset, obstacles):
    """The first step whose slot before it is within its own r_imp of any
    obstacle, by the hypot test over every obstacle, or whose slot is not
    finite; else len(rows)."""
    ox, oy = offset
    for n in range(1, len(rows)):
        (x0, y0), (x1, y1) = ((x + ox, y + oy) for x, y in rows[n - 1:n + 1])
        if any(math.hypot(x0 - cx, y0 - cy) - radius < r_imp
               for cx, cy, radius, _, r_imp in obstacles):
            return n
        if not (math.isfinite(x1) and math.isfinite(y1)):
            return n
    return len(rows)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ride_fields())
def test_a_ride_stops_where_a_scan_of_every_obstacle_stops_it(field):
    # The box search stops each ride where a scan of every obstacle does,
    # also for a second offset after the track grows.
    spec, offset, pad = field
    track = LeaderTrack(spec)
    obstacles = spec.obstacle_index.rows
    for off in (offset, (offset[0] + 0.5, offset[1])):
        rows = np.frombuffer(track.xy).reshape(-1, 2).tolist()
        assert track.ride_table(off) == reference_stop(rows, off, obstacles)
        if track.rest is not None:
            track.row(len(rows) - 1 + pad)


@pytest.mark.parametrize("spec, offset, stop", [
    # The slot overflows at step 5, and the ride takes steps 1 to 4.
    (ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.25e308, 0.0),
                  apf=ApfParams(leader_speed=3e307), dt=1.0,
                  formation_offsets=(Vec2(5e307, 0.0),)), (5e307, 0.0), 5),
    # The leader overshoots its goal at step 2, where the slot overflows.
    (ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1e308, 0.0),
                  apf=ApfParams(leader_speed=7e307), dt=1.0,
                  formation_offsets=(Vec2(7e307, 0.0),)), (7e307, 0.0), 2),
])
def test_a_ride_stops_where_its_slot_or_its_mean_speed_is_not_finite(spec, offset, stop):
    # A ride keeps no mean speed, so the first slot that is not finite is
    # the one stop that both cases reach.
    track = LeaderTrack(spec)
    rows = np.frombuffer(track.xy).reshape(-1, 2).tolist()
    assert track.ride_table(offset) == reference_stop(rows, offset, ()) == stop


def test_a_ride_stops_at_a_post_that_the_last_slot_of_a_box_grazes():
    # The post's r_imp reaches 1e-12 m past slot BOX_ROWS - 1, the first
    # box's largest x, so its box must not cull it; the leader, 0.4 m from
    # its surface, is out of its field.
    free = straight_spec(goal=Vec2(3.0, 0.0), formation_offsets=(Vec2(0.0, 0.5),))
    x = LeaderTrack(free).row(BOX_ROWS - 1)[0]
    post = Obstacle(Vec2(x + 0.3 - 1e-12, 0.5), 0.1, 0.2, 0.2)
    spec = dataclasses.replace(free, obstacles=(post,))
    track = LeaderTrack(spec)
    assert track.xy == LeaderTrack(free).xy
    rows = np.frombuffer(track.xy).reshape(-1, 2).tolist()
    stop = reference_stop(rows, (0.0, 0.5), spec.obstacle_index.rows)
    assert track.ride_table((0.0, 0.5)) == stop == BOX_ROWS


# 3e307 m per step: the leader's rows run 0, 3e307, 6e307, 9e307, 1.2e308, then
# 1.5e308 and 1.2e308 in turn; the post sits 6e307 m off its path.
OVERFLOWING = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.25e308, 0.0),
                           apf=ApfParams(leader_speed=3e307), dt=1.0,
                           obstacles=(Obstacle(Vec2(6e307, 6e307), 1e306, 1e307, 1e307),))


@pytest.mark.parametrize("offset, stop", [
    ((5e307, 0.0), 5),  # slot 5 overflows and no slot comes near the post
    ((4e307, 6e307), 2),  # slot 1 is within the post's r_imp; slot 5 would overflow
    ((5e307, 6e307), 1), ((0.0, 6e307), 3), ((-2e307, 6e307), 4),
    ((0.0, -0.4), 5001),  # every row the track holds
])
def test_a_ride_table_is_a_scan_of_every_slot_of_a_track_that_overflows(offset, stop):
    # The stop is the first hit of the box search or the first slot that is
    # not finite, whichever comes first: a brute scan of every slot.
    track = LeaderTrack(OVERFLOWING)
    rows = np.frombuffer(track.xy).reshape(-1, 2).tolist()
    assert not all(map(math.isfinite, (rows[5][0] + 5e307, rows[5][1])))
    assert track.ride_table(offset) == reference_stop(
        rows, offset, OVERFLOWING.obstacle_index.rows) == stop


@pytest.mark.parametrize("last", [0, 1, 63, 700, 10 ** 5])
def test_a_ride_appends_what_a_copy_of_the_rows_and_a_list_of_modes_would(last):
    # The ride reads the leader's rows through a view of the track's buffer
    # and appends its modes as bytes: its buffers equal, byte for byte, those
    # built from a copied slice of the rows and a list of LEADER, and no view
    # outlives it, so the track still grows.
    spec = load_scenario(json.dumps(grid16_forest_doc()))
    track = LeaderTrack(spec)
    coefficients = link_coefficients(spec.impedance, spec.dt)
    for off in spec.formation_offsets:
        offset = off.as_tuple()
        positions = array("d", (spec.start.x + off.x, spec.start.y + off.y))
        modes = array("q", (LEADER,))
        copied, listed = array("d", positions), array("q", modes)
        track.ride(offset, last, coefficients, positions, modes)
        end = min(last, track.ride_table(offset) - 1)
        copied.frombytes(((np.frombuffer(track.xy[2:2 * end + 2]).reshape(-1, 2) + offset)
                          + 0.0).tobytes())
        listed.extend([LEADER] * end)
        assert (bytes(positions), bytes(modes)) == (bytes(copied), bytes(listed))
        assert len(modes) == end + 1
    held = len(track.xy) // 2
    track.row(held + 10)
    assert len(track.xy) == 2 * (held + 11)


def test_half_the_grid_rides_case2_forest_to_the_last_row():
    # Half the 16-drone grid rides case2_forest to its end, and only the
    # followers handed over to the loop ever link to a post.
    spec = load_scenario(json.dumps(grid16_forest_doc()))
    track = LeaderTrack(spec)
    trace = run(spec, SWARMPATH, track)
    held = len(track.xy) // 2
    handed = {offset for offset, stop in track.ride_tables.items() if stop < held}
    assert len(track.ride_tables) == 16 and len(handed) == 8
    assert trace.outcome == COMPLETED
    linked = (trace.modes != LEADER).any(axis=0).tolist()
    assert linked == [off.as_tuple() in handed for off in spec.formation_offsets]


def test_a_zero_offset_on_a_leader_coordinate_of_zero():
    # As case2_forest's drones 1 and 3: mirrored posts keep the leader on
    # y = 0.0 exactly, and the offset's y is 0.0, so the slot's y is
    # 0.0 + 0.0 on every step the drone rides it.
    post = dict(radius=0.1, r_apf=0.5, r_imp=0.25)
    spec = straight_spec(goal=Vec2(3.0, 0.0),
                         obstacles=(Obstacle(Vec2(2.0, 0.3), **post),
                                    Obstacle(Vec2(2.0, -0.3), **post)),
                         formation_offsets=(Vec2(0.8, 0.0), Vec2(-0.8, 0.0), Vec2(0.0, 0.4)))
    validate_spec(spec)
    trace = assert_matches_reference(spec)
    assert not np.signbit(trace.leader[:, 1]).any()
    assert not trace.leader[:, 1].any()
    for drone in (0, 1):
        riding = np.cumprod(trace.modes[:, drone] == LEADER).astype(bool)
        assert riding.sum() > 10
        ys = trace.positions[riding, drone, 1]
        assert not ys.any() and not np.signbit(ys).any()


def test_a_start_at_negative_zero():
    spec = ScenarioSpec(start=Vec2(-0.0, -0.0), goal=Vec2(1.0, -0.0),
                        formation_offsets=(Vec2(-0.0, -0.0), Vec2(0.4, -0.0),
                                           Vec2(-0.0, 0.4)))
    validate_spec(spec)
    trace = assert_matches_reference(spec)
    assert np.signbit(trace.positions[0]).tolist() == [[True, True], [False, True],
                                                       [True, False]]


@pytest.mark.parametrize("spec, step", [
    # 3e307 m per step: drone 1's slot, 5e307 m ahead of the leader, overflows at
    # step 5, where the leader overshoots its goal by 2.5e307 m (the goal slot
    # itself, 1.75e308, is finite).
    (ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.25e308, 0.0),
                  apf=ApfParams(leader_speed=3e307), dt=1.0,
                  formation_offsets=(Vec2(5e307, 0.0), Vec2(0.0, 0.4))), 5),
    # 7e307 m per step: drone 1's slot, 7e307 m ahead of the leader, overflows
    # at step 2, where the leader overshoots its goal by 4e307 m.
    (ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1e308, 0.0),
                  apf=ApfParams(leader_speed=7e307), dt=1.0,
                  formation_offsets=(Vec2(7e307, 0.0), Vec2(0.0, 0.4))), 2),
])
def test_a_ride_leaves_an_overflow_to_the_loop(spec, step):
    validate_spec(spec)
    with pytest.raises(SingularityError) as err:
        run(spec, SWARMPATH)
    assert str(err.value) == reference_run(spec, SWARMPATH)
    assert str(err.value) == f"step {step}: the state overflowed to a non-finite value"


def test_a_drone_whose_steps_over_dt_overflow_runs_to_max_steps():
    # A dt of 5e-324 s: one rounding step of drone 1's x near 8.0 over dt is
    # infinite, but nothing reads a speed, so every row stays finite.
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                        apf=ApfParams(leader_speed=1.7e308), dt=5e-324,
                        formation_offsets=(Vec2(8.0, 0.0), Vec2(0.0, 0.4)), max_steps=50)
    validate_spec(spec)
    trace = assert_matches_reference(spec)
    assert trace.outcome == MAX_STEPS and trace.n_frames == 51
    assert np.isfinite(trace.positions).all()
    assert trace.positions[2, 0, 0] != trace.positions[1, 0, 0]


def reference_rows_to_fault(spec, drone, last):
    """Drone 1's (x, y) and mode after each step from the helpers, up to the first
    step through last that faults, and that step and its text."""
    state, step = swarm_reference(spec)
    state[:] = [drone]
    rows, modes = [], []
    for n in range(1, last + 1):
        try:
            step(n)
            if not all(map(math.isfinite, state[0])):
                raise SingularityError(NON_FINITE)
        except SingularityError as exc:
            return rows, modes, (n, str(exc).removeprefix("drone 1: "))
        rows.append(state[0][:2])
        modes.append(state[0][4])
    raise AssertionError(f"no fault through step {last}")


@pytest.mark.parametrize("spec, kind", [
    # k_impF * r_imp overflows, so the link the drone acquires at step 71,
    # within 1.2 m of the post's surface, has no direction.
    (straight_spec(obstacles=(Obstacle(Vec2(1.6, 0.75), 0.1, 1.2, 1.2),),
                   formation_offsets=(Vec2(0.0, 0.4),),
                   topology=TopologyParams(k_impF=1.7e308)),
     DEFLECTION_FAULT),
    # 3e307 m per step: the slot, 5e307 m ahead of the leader, overflows.
    (ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.25e308, 0.0),
                  apf=ApfParams(leader_speed=3e307), dt=1.0,
                  formation_offsets=(Vec2(5e307, 0.0),)), OVERFLOW_FAULT),
])
def test_a_fault_after_steps_of_one_call_keeps_only_the_earlier_rows(spec, kind):
    # Off rest (vx = 0.01), the drone is stepped by the loop from step 1 on,
    # so the fault's step comes after rows the call has collected.
    validate_spec(spec)
    last = 120
    track = LeaderTrack(spec)
    track.row(last)
    offset = spec.formation_offsets[0].as_tuple()
    x, y = track.row(0)
    drone = (x + offset[0], y + offset[1], 0.01, 0.0, LEADER)
    rows, modes, (step, text) = reference_rows_to_fault(spec, drone, last)
    assert step > 1
    link, positions, mode_rows = follower_at(drone, 0)
    result = swarm_step(link, last, track, offset, spec,
                        link_coefficients(spec.impedance, spec.dt), positions, mode_rows)
    assert (result, len(mode_rows)) == ((None, (kind, text)), step)
    assert bytes(positions) == np.array([drone[:2], *rows]).tobytes()
    assert list(mode_rows) == [LEADER, *modes]


def far_mirrored_posts(k_impF, goal_threshold=1e-3):
    """One drone on the leader, between mirrored posts whose r_imp reaches it all the way.

    The leader stays on y = 0.0 exactly.  The drone links to post 0 at step 1
    and never releases, so swarm_step's loop, not a ride, runs its every step.
    """
    post = dict(radius=0.1, r_apf=4.0, r_imp=4.0)
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.2, 0.0),
                        obstacles=(Obstacle(Vec2(0.0, 3.0), **post),
                                   Obstacle(Vec2(0.0, -3.0), **post)),
                        formation_offsets=(Vec2(0.0, 0.0),),
                        apf=ApfParams(goal_threshold=goal_threshold),
                        topology=TopologyParams(k_impF=k_impF), max_steps=400)
    validate_spec(spec)
    return spec


def test_a_drone_goal_threshold_away_along_x_is_within():
    # With no deflection the drone sits on the leader at y = 0.0, so its
    # distance to its goal slot is |x - goal_x| exactly.  A threshold of that
    # distance at step 100 puts the goal test on its edge there; the leader,
    # not within before, moves as it did.
    x = float(run(far_mirrored_posts(0.0), SWARMPATH).positions[100, 0, 0])
    spec = far_mirrored_posts(0.0, goal_threshold=1.2 - x)
    trace = assert_matches_reference(spec)
    assert trace.outcome == COMPLETED and trace.n_frames == 101
    assert (trace.modes[1:, 0] == 0).all()
    assert trace.positions[100, 0].tolist() == [x, 0.0]
    assert math.hypot(x - 1.2, 0.0) == spec.apf.goal_threshold


def test_a_drone_within_goal_threshold_along_x_only_is_not_within():
    # The deflection keeps the drone about 0.19 m below y = 0.0 and ahead of
    # the leader.  At the first step n where it is within 0.03 m of its goal
    # slot along x, a threshold of that |x - goal_x| passes |x - goal_x| but
    # not the hypot, and the run goes on to max_steps.
    rows = run(far_mirrored_posts(0.05), SWARMPATH).positions[:, 0]
    n = int(np.argmax(np.abs(rows[:, 0] - 1.2) < 0.03))
    x, y = rows[n].tolist()
    spec = far_mirrored_posts(0.05, goal_threshold=abs(x - 1.2))
    trace = assert_matches_reference(spec)
    assert trace.outcome == MAX_STEPS
    assert (trace.modes[1:, 0] == 0).all()
    assert trace.positions[n, 0].tolist() == [x, y]
    assert abs(x - 1.2) <= spec.apf.goal_threshold < math.hypot(x - 1.2, y)


def test_a_negative_zero_rate_is_stepped_like_the_helpers():
    # A drone on its slot with vx = -0.0: the zero-force update turns the
    # rate into +0.0, so the state is not a fixed point and is stepped one
    # step at a time.
    spec = straight_spec(formation_offsets=(Vec2(0.0, 0.4),), max_steps=400)
    track = LeaderTrack(spec)
    track.row(60)
    x, y = track.row(20)
    drone = (x + 0.0, y + 0.4, -0.0, 0.0, LEADER)
    rows = reference_rows(spec, 60, [drone], start=20)
    link, positions, modes = follower_at(drone, 20)
    link, _ = swarm_step(link, 60, track, (0.0, 0.4), spec,
                         link_coefficients(spec.impedance, spec.dt), positions, modes)
    assert len(modes) - 1 == 60
    assert bytes(positions)[16 * 21:] == rows[1:, 0].tobytes()
    assert math.copysign(1.0, link[0]) == 1.0


def test_a_drone_back_on_its_slot_is_stepped_like_the_helpers():
    # A drone at rest on its slot at step 20, as after a link episode:
    # swarm_step never rides, and steps it as the helpers do.
    spec = straight_spec(formation_offsets=(Vec2(0.0, 0.4),), max_steps=400)
    track = LeaderTrack(spec)
    track.row(60)
    x, y = track.row(20)
    drone = (x + 0.0, y + 0.4, 0.0, 0.0, LEADER)
    state, step = swarm_reference(spec)
    state[:] = [drone]
    for n in range(21, 61):
        step(n)
    link, positions, modes = follower_at(drone, 20)
    link, _ = swarm_step(link, 60, track, (0.0, 0.4), spec,
                         link_coefficients(spec.impedance, spec.dt), positions, modes)
    assert (len(modes) - 1, drone_state(link, positions, modes)) == (60, state[0])
    assert track.ride_tables == {}


@pytest.mark.parametrize("chunk", [1, 128])
def test_each_follower_rides_once_from_frame_0_and_swarm_step_builds_no_ride_table(
        chunk, monkeypatch):
    # The lagging swarm runs over many rounds with chunk 1 and over two with
    # chunk 128; only the round from frame 0 rides, once per follower, and no
    # swarm_step call builds or changes a ride table.
    monkeypatch.setattr(simulator, "CHUNK", chunk)
    spec = lagging_spec()
    rides, calls = [], []
    ride = LeaderTrack.ride

    def recorded_ride(track, offset, last, coefficients, positions, modes):
        rides.append((offset, len(positions), len(modes)))
        return ride(track, offset, last, coefficients, positions, modes)

    def recorded_step(*args):
        tables = dict(args[2].ride_tables)
        result = swarm_step(*args)
        assert args[2].ride_tables == tables
        calls.append(args[1])
        return result

    monkeypatch.setattr(LeaderTrack, "ride", recorded_ride)
    monkeypatch.setattr(simulator, "swarm_step", recorded_step)
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    offsets = [o.as_tuple() for o in spec.formation_offsets]
    assert rides == [(offset, 2, 1) for offset in offsets]  # frame 0's row alone
    assert len(calls) > 2 * len(offsets)  # the rounds after the first rode none


def test_infinite_link_gains_are_stepped_to_their_overflow():
    # m = d = k = 5e-324 make gamma0 = gamma1 = inf, so the zero-force term
    # g * 0.0 is nan: the drone cannot rest on its slot, and its first step
    # overflows.
    spec = straight_spec(impedance=ImpedanceParams(m=5e-324, d=5e-324, k=5e-324))
    validate_spec(spec)
    assert link_coefficients(spec.impedance, spec.dt)[4:] == (math.inf, math.inf)
    with pytest.raises(SingularityError) as err:
        run(spec, SWARMPATH)
    assert str(err.value) == reference_run(spec, SWARMPATH)
    assert str(err.value) == "step 1: the state overflowed to a non-finite value"


def test_numpy_floor_division_is_pythons():
    # The kernels key their force and link cells with float //; numpy's
    # floor division gives the same keys bit for bit, signed zeros and
    # subnormals included, so an array pass may key the same cells.
    values = [0.0, -0.0, 5e-324, -5e-324, 0.35, -0.35, 0.7, -0.7, 1.05, 2.1, -2.1, 1e300,
              *np.random.default_rng(5).uniform(-20.0, 20.0, 2000).tolist()]
    for cell in (0.35, 0.1, 0.3 + 0.05, 1.0, 1.15 + 0.3, 3.0):
        numpy_keys = np.floor_divide(np.array(values), cell)
        assert numpy_keys.tobytes() == np.array([v // cell for v in values]).tobytes()
