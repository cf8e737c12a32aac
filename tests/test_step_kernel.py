"""The fused step passes against a reference run built from the public helpers.

swarm_step and baseline_step each move every drone, append its row and test
it in one pass.  The reference below rebuilds both controllers' runs one drone
at a time from update_link_mode, deflection_offset and link_step (the swarm)
and leader_step (the baseline), with the run loop written out again, so the
fused passes cannot drift from the helpers: columns must match bit for bit,
and outcomes and error messages exactly.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from swarmpath.apf import SingularityError, leader_step
from swarmpath.impedance import link_coefficients, link_step
from swarmpath.simulator import (COMPLETED, CONTROLLERS, MAX_STEPS, STALL_PATIENCE, STALLED,
                                 SWARMPATH, run)
from swarmpath.topology import (LEADER, MEAN_SPEED_ALPHA, LeaderTrack, deflection_offset,
                                update_link_mode)
from swarmpath.world import (Obstacle, ScenarioSpec, ScenarioValidationError, TopologyParams,
                             Vec2, validate_spec)


@st.composite
def small_specs(draw):
    """A few posts around the path, 1 to 5 drones and a short step limit."""
    offsets = draw(st.lists(st.tuples(st.sampled_from([-0.4, 0.0, 0.4]),
                                      st.sampled_from([-0.4, 0.0, 0.4])),
                            min_size=1, max_size=5, unique=True))
    posts = []
    for _ in range(draw(st.integers(0, 4))):
        radius = draw(st.floats(0.05, 0.2))
        r_imp = radius + draw(st.floats(0.1, 0.5))
        r_apf = r_imp + draw(st.floats(0.0, 0.5))
        center = Vec2(draw(st.floats(0.2, 1.8)), draw(st.floats(-0.6, 0.6)))
        if draw(st.integers(0, 9)) == 0:  # on a drone's start: its first step has no direction
            center = Vec2(*offsets[0])
        posts.append(Obstacle(center, radius, r_apf, r_imp))
    spec = ScenarioSpec(
        start=Vec2(0.0, 0.0),
        goal=Vec2(draw(st.floats(0.5, 1.5)), draw(st.floats(-0.5, 0.5))),
        obstacles=tuple(posts),
        formation_offsets=tuple(Vec2(x, y) for x, y in offsets),
        topology=TopologyParams(k_impF=draw(st.floats(0.0, 1.0)),
                                hysteresis=draw(st.floats(0.0, 0.3)),
                                velocity_gain=draw(st.floats(0.0, 2.0))),
        dt=draw(st.sampled_from([0.02, 0.05])),
        max_steps=draw(st.integers(1, 400)),
    )
    try:
        validate_spec(spec)
    except ScenarioValidationError:
        assume(False)
    return spec


def swarm_reference(spec):
    """The swarm's drones and step(n), one drone at a time; step returns the leader's stall."""
    track = LeaderTrack(spec)
    coefficients = link_coefficients(spec.impedance, spec.dt)
    index, params = spec.obstacle_index, spec.topology
    drones = [(spec.start.x + o.x, spec.start.y + o.y, 0.0, 0.0, LEADER, 0.0)
              for o in spec.formation_offsets]

    def step(n):
        lx, ly = track.row(n - 1)
        nlx, nly = track.row(n)
        for i, o in enumerate(spec.formation_offsets):
            x, y, vx, vy, mode, mean_speed = drones[i]
            mode = update_link_mode(x, y, mode, index, params)
            slot_x, slot_y = lx + o.x, ly + o.y
            new_x, new_y = nlx + o.x, nly + o.y
            if mode != LEADER:
                try:
                    ex, ey = deflection_offset(x, y, mean_speed, index.rows[mode], params)
                except SingularityError as exc:
                    raise SingularityError(f"drone {i + 1}: {exc}") from None
                slot_x, slot_y = slot_x + ex, slot_y + ey
                new_x, new_y = new_x + ex, new_y + ey
            dx, dy, vx, vy = link_step(x - slot_x, y - slot_y, vx, vy, 0.0, 0.0, coefficients)
            new_x, new_y = new_x + dx, new_y + dy
            speed = math.hypot(new_x - x, new_y - y) / spec.dt
            mean_speed = (1.0 - MEAN_SPEED_ALPHA) * mean_speed + MEAN_SPEED_ALPHA * speed
            drones[i] = (new_x, new_y, vx, vy, mode, mean_speed)
        return track.stalled(n)

    return drones, step


def baseline_reference(spec):
    """The baseline's drones and step(n), one drone at a time; step returns the stall."""
    drones = [(spec.start.x + o.x, spec.start.y + o.y, False) for o in spec.formation_offsets]

    def step(n):
        moved = unfinished = False
        for i, o in enumerate(spec.formation_offsets):
            new, stalled = leader_step(drones[i], spec.goal.x + o.x, spec.goal.y + o.y, spec)
            unfinished = unfinished or not new[2]
            moved = moved or (not stalled and new[:2] != drones[i][:2])
            drones[i] = new
        return unfinished and not moved

    return drones, step


def reference_run(spec, controller):
    """(outcome, positions, modes) of the run, or the message of its SingularityError."""
    drones, step = (swarm_reference if controller == SWARMPATH else baseline_reference)(spec)
    slots = [(spec.goal.x + o.x, spec.goal.y + o.y) for o in spec.formation_offsets]
    positions, modes = [], []

    def record():
        positions.append([d[:2] for d in drones])
        modes.append([d[4] for d in drones] if controller == SWARMPATH else None)

    record()
    stall_run, n = 0, 0
    while True:
        if all(math.hypot(d[0] - gx, d[1] - gy) <= spec.apf.goal_threshold
               for d, (gx, gy) in zip(drones, slots)):
            outcome = COMPLETED
        elif stall_run >= STALL_PATIENCE:
            outcome = STALLED
        elif n == spec.max_steps:
            outcome = MAX_STEPS
        else:
            n += 1
            try:
                stalled = step(n)
                if not all(math.isfinite(v) for d in drones for v in d):
                    raise SingularityError("the state overflowed to a non-finite value")
            except SingularityError as exc:
                return f"step {n}: {exc}"
            stall_run = stall_run + 1 if stalled else 0
            record()
            continue
        return outcome, np.array(positions), modes


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=small_specs(), controller=st.sampled_from(CONTROLLERS))
def test_fused_step_matches_the_helpers(spec, controller):
    expected = reference_run(spec, controller)
    try:
        trace = run(spec, controller)
    except SingularityError as exc:
        assert str(exc) == expected
        return
    outcome, positions, modes = expected
    assert trace.outcome == outcome
    assert trace.positions.tobytes() == positions.tobytes()
    if controller == SWARMPATH:
        assert np.array_equal(trace.modes, np.array(modes))
    else:
        assert trace.modes is None
