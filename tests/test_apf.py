import math

import pytest
from hypothesis import given, strategies as st

from swarmpath.apf import (
    LeaderState,
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
    f = attraction_force(Vec2(0.0, 0.0), Vec2(3.0, 4.0), 1.0)
    assert f == Vec2(3.0, 4.0)
    assert f.norm() == 5.0
    assert attraction_force(Vec2(0.0, 0.0), Vec2(3.0, 4.0), 2.0) == Vec2(6.0, 8.0)


def test_repulsion_hand_value():
    # Point obstacle: surface distance 2, cutoff 4 -> k_rep*(1/2 - 1/4) outward.
    ob = Obstacle(Vec2(0.0, 0.0), 0.0, 4.0, 0.5)
    f = repulsion_force(Vec2(2.0, 0.0), ob, 1.0)
    assert f == Vec2(0.25, 0.0)


def test_repulsion_zero_outside_cutoff():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8)
    for r in (1.5 + 1e-9, 2.0, 50.0):
        assert repulsion_force(Vec2(r, 0.0), ob, 2.0) == Vec2(0.0, 0.0)


def test_repulsion_vanishes_continuously_at_cutoff():
    # Just inside the cutoff the magnitude is k_rep*(1/(1-delta) - 1) ~ k_rep*delta.
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8)
    for delta in (1e-3, 1e-6, 1e-9):
        inside = repulsion_force(Vec2(1.5 - delta, 0.0), ob, 2.0).norm()
        assert inside <= 2.0 * delta / (1.0 - delta) * 1.000001


def test_repulsion_points_outward_and_grows_toward_surface():
    ob = Obstacle(Vec2(1.0, 1.0), 0.2, 1.0, 0.5)
    p_near = Vec2(1.0, 1.25)
    p_far = Vec2(1.0, 1.9)
    f_near = repulsion_force(p_near, ob, 0.5)
    f_far = repulsion_force(p_far, ob, 0.5)
    assert f_near.x == pytest.approx(0.0, abs=1e-15)
    assert f_near.y > f_far.y > 0.0


def test_repulsion_at_center_raises():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8)
    with pytest.raises(SingularityError):
        repulsion_force(Vec2(0.0, 0.0), ob, 1.0)


@pytest.mark.parametrize("gap", [1e-310, 2.225073858507203e-309])
def test_repulsion_overflowing_near_center_raises(gap):
    # magnitude / dist overflows: the direction is as undefined as on the center.
    ob = Obstacle(Vec2(0.0, gap), 0.5, 1.5, 1.5)
    with pytest.raises(SingularityError):
        repulsion_force(Vec2(0.0, 0.0), ob, 0.3)


def test_repulsion_inside_body_is_clamped_finite():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8)
    f = repulsion_force(Vec2(0.25, 0.0), ob, 1.0)
    assert math.isfinite(f.x)
    assert f.x > 0.0
    assert f.y == 0.0


@given(angle=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_total_force_is_rotation_equivariant(angle):
    params = ApfParams(k_att=1.3, k_rep=0.7)
    goal = Vec2(4.0, 1.0)
    obstacles = (
        Obstacle(Vec2(2.0, 0.5), 0.2, 1.5, 0.6),
        Obstacle(Vec2(1.0, -1.0), 0.3, 2.0, 0.8),
    )
    p = Vec2(0.5, 0.25)
    f = total_force(p, goal, obstacles, params)
    f_rot = total_force(
        rotate(p, angle),
        rotate(goal, angle),
        tuple(
            Obstacle(rotate(ob.center, angle), ob.radius, ob.r_apf, ob.r_imp)
            for ob in obstacles
        ),
        params,
    )
    expected = rotate(f, angle)
    assert f_rot.x == pytest.approx(expected.x, abs=1e-9)
    assert f_rot.y == pytest.approx(expected.y, abs=1e-9)


def test_leader_step_moves_at_constant_speed():
    spec = straight_spec(goal=Vec2(10.0, 0.0))
    state, stalled = leader_step(LeaderState(spec.start), spec.goal, spec)
    assert not stalled
    assert state.position.dist(spec.start) == pytest.approx(
        spec.apf.leader_speed * spec.dt, rel=1e-12
    )
    assert state.position.y == 0.0


def test_leader_latches_at_goal_before_moving():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    near = LeaderState(Vec2(0.95, 0.0))
    state, stalled = leader_step(near, spec.goal, spec)
    assert state.reached_goal
    assert state.position == near.position
    assert not stalled
    again, _ = leader_step(state, spec.goal, spec)
    assert again.position == near.position


def test_leader_step_reports_stall_at_equilibrium():
    trapped = straight_spec(
        start=Vec2(-2.0, 0.0),
        goal=Vec2(2.0, 0.0),
        obstacles=(Obstacle(Vec2(0.0, 0.0), 0.1, 10.0, 5.0),),
    )
    # Approaching the obstacle head-on, attraction (+x) and repulsion (-x)
    # cancel somewhere on the segment; bisect f_x = 0 to land on it exactly.
    params = trapped.apf

    def fx(x):
        return total_force(Vec2(x, 0.0), trapped.goal, trapped.obstacles, params).x

    lo, hi = -0.2, -0.5
    assert fx(lo) < 0.0 < fx(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fx(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    _, stalled = leader_step(LeaderState(Vec2(lo, 0.0)), trapped.goal, trapped)
    assert stalled

