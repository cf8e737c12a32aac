import math
import struct

import pytest
from hypothesis import given, strategies as st

from swarmpath.apf import (
    SingularityError,
    attraction_force,
    leader_step,
    repulsion_force,
    total_force,
)
from swarmpath.world import ApfParams, Obstacle, Vec2
from conftest import straight_spec


def rotate(v: Vec2, angle: float) -> Vec2:
    c, s = math.cos(angle), math.sin(angle)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


def test_attraction_is_linear_in_goal_error():
    f = attraction_force(0.0, 0.0, 3.0, 4.0, 1.0)
    assert f == (3.0, 4.0)
    assert math.hypot(*f) == 5.0
    assert attraction_force(0.0, 0.0, 3.0, 4.0, 2.0) == (6.0, 8.0)


def test_repulsion_hand_value():
    # Point obstacle: surface distance 2, cutoff 4 -> k_rep*(1/2 - 1/4) outward.
    ob = Obstacle(Vec2(0.0, 0.0), 0.0, 4.0, 0.5).as_tuple()
    f = repulsion_force(2.0, 0.0, ob, 1.0)
    assert f == (0.25, 0.0)


def test_repulsion_zero_outside_cutoff():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8).as_tuple()
    for r in (1.5 + 1e-9, 2.0, 50.0):
        assert repulsion_force(r, 0.0, ob, 2.0) == (0.0, 0.0)


def test_repulsion_vanishes_continuously_at_cutoff():
    # Just inside the cutoff the magnitude is k_rep*(1/(1-delta) - 1) ~ k_rep*delta.
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8).as_tuple()
    for delta in (1e-3, 1e-6, 1e-9):
        inside = math.hypot(*repulsion_force(1.5 - delta, 0.0, ob, 2.0))
        assert inside <= 2.0 * delta / (1.0 - delta) * 1.000001


def test_repulsion_points_outward_and_grows_toward_surface():
    ob = Obstacle(Vec2(1.0, 1.0), 0.2, 1.0, 0.5).as_tuple()
    f_near = repulsion_force(1.0, 1.25, ob, 0.5)
    f_far = repulsion_force(1.0, 1.9, ob, 0.5)
    assert f_near[0] == pytest.approx(0.0, abs=1e-15)
    assert f_near[1] > f_far[1] > 0.0


def test_repulsion_at_center_raises():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8).as_tuple()
    with pytest.raises(SingularityError):
        repulsion_force(0.0, 0.0, ob, 1.0)


@pytest.mark.parametrize("gap", [1e-310, 2.225073858507203e-309])
def test_repulsion_overflowing_near_center_raises(gap):
    # magnitude / dist overflows: the direction is as undefined as on the center.
    ob = Obstacle(Vec2(0.0, gap), 0.5, 1.5, 1.5).as_tuple()
    with pytest.raises(SingularityError):
        repulsion_force(0.0, 0.0, ob, 0.3)


def test_repulsion_inside_body_is_clamped_finite():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8).as_tuple()
    fx, fy = repulsion_force(0.25, 0.0, ob, 1.0)
    assert math.isfinite(fx)
    assert fx > 0.0
    assert fy == 0.0


@given(angle=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_total_force_is_rotation_equivariant(angle):
    params = ApfParams(k_att=1.3, k_rep=0.7)
    goal = Vec2(4.0, 1.0)
    obstacles = (
        Obstacle(Vec2(2.0, 0.5), 0.2, 1.5, 0.6),
        Obstacle(Vec2(1.0, -1.0), 0.3, 2.0, 0.8),
    )
    p = Vec2(0.5, 0.25)
    f = Vec2(*total_force(p.x, p.y, goal.x, goal.y,
                          tuple(ob.as_tuple() for ob in obstacles), params))
    rp, rgoal = rotate(p, angle), rotate(goal, angle)
    f_rot = total_force(
        rp.x, rp.y, rgoal.x, rgoal.y,
        tuple(
            Obstacle(rotate(ob.center, angle), ob.radius, ob.r_apf, ob.r_imp).as_tuple()
            for ob in obstacles
        ),
        params,
    )
    expected = rotate(f, angle)
    assert f_rot[0] == pytest.approx(expected.x, abs=1e-9)
    assert f_rot[1] == pytest.approx(expected.y, abs=1e-9)


def test_leader_step_moves_at_constant_speed():
    spec = straight_spec(goal=Vec2(10.0, 0.0))
    (x, y, _), stalled = leader_step((spec.start.x, spec.start.y, False), 10.0, 0.0, spec)
    assert not stalled
    assert math.hypot(x - spec.start.x, y - spec.start.y) == pytest.approx(
        spec.apf.leader_speed * spec.dt, rel=1e-12
    )
    assert y == 0.0


def test_leader_latches_at_goal_before_moving():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    near = (0.95, 0.0, False)
    state, stalled = leader_step(near, 1.0, 0.0, spec)
    assert state[2]
    assert state[:2] == near[:2]
    assert not stalled
    again, _ = leader_step(state, 1.0, 0.0, spec)
    assert again[:2] == near[:2]


def test_leader_step_reports_stall_at_equilibrium():
    trapped = straight_spec(
        start=Vec2(-2.0, 0.0),
        goal=Vec2(2.0, 0.0),
        obstacles=(Obstacle(Vec2(0.0, 0.0), 0.1, 10.0, 5.0),),
    )
    # Approaching the obstacle head-on, attraction (+x) and repulsion (-x)
    # cancel somewhere on the segment; bisect f_x = 0 to land on it exactly.
    params = trapped.apf
    rows = tuple(ob.as_tuple() for ob in trapped.obstacles)

    def fx(x):
        return total_force(x, 0.0, 2.0, 0.0, rows, params)[0]

    lo, hi = -0.2, -0.5
    assert fx(lo) < 0.0 < fx(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fx(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    _, stalled = leader_step((lo, 0.0, False), 2.0, 0.0, trapped)
    assert stalled



def test_total_force_adds_nothing_for_a_row_that_does_not_act():
    # (gx - x) * k_att = -1e-300 * 1e-30 underflows to -0.0; adding the +0.0 of
    # a row beyond its r_apf would turn it into +0.0.
    params = ApfParams(k_att=1e-30)
    far = Obstacle(Vec2(5.0, 5.0), 0.1, 0.5, 0.3).as_tuple()
    fx, fy = total_force(1e-300, 0.0, 0.0, 0.0, (far,), params)
    assert struct.pack("<dd", fx, fy) == struct.pack("<dd", -0.0, 0.0)
    assert struct.pack("<dd", *total_force(1e-300, 0.0, 0.0, 0.0, (), params)) == \
        struct.pack("<dd", fx, fy)
