import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from swarmpath.apf import (
    NO_REPULSION,
    SingularityError,
    leader_step,
    repulsion_force,
    total_force,
)
from swarmpath.world import ApfParams, Obstacle, Vec2
from conftest import straight_spec
from reference import attraction_force


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


def reference_force(x, y, gx, gy, rows, params):
    """total_force rebuilt from its one-term helpers: attraction, then every
    acting repulsion in row order."""
    fx, fy = attraction_force(x, y, gx, gy, params.k_att)
    for row in rows:
        force = repulsion_force(x, y, row, params.k_rep)
        if force is not NO_REPULSION:
            fx += force[0]
            fy += force[1]
    return fx, fy


def outcome(force, *args):
    """The exact bits of force(*args), or its SingularityError's text."""
    try:
        return struct.pack("<dd", *force(*args))
    except SingularityError as exc:
        return str(exc)


@st.composite
def force_queries(draw):
    """Rows near the origin and a point on a center, inside a body, at the
    surface clamp, on a surface plus r_apf, or off the rows' grid of simple
    values; gains from denormal (an attraction that rounds to -0.0) to large
    enough to overflow the repulsion."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        radius = draw(st.floats(0.0, 0.5))
        r_apf = draw(st.floats(0.01, 1.5))
        rows.append((draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), radius,
                     r_apf, r_apf))
    kinds = ["free", "center", "inside", "skin", "reach"] if rows else ["free"]
    kind = draw(st.sampled_from(kinds))
    x, y = draw(st.floats(-2.0, 2.0)) + 0.3125, draw(st.floats(-2.0, 2.0)) - 0.1875
    if kind != "free":
        cx, cy, radius, r_apf, _ = draw(st.sampled_from(rows))
        if kind == "center":
            x, y = cx, cy
        elif kind == "inside":
            x, y = cx + draw(st.floats(-radius, radius)), cy
        elif kind == "skin":  # about SURFACE_EPS off the surface, where d_o is clamped
            x, y = cx, cy + radius + draw(st.sampled_from([5e-7, 1e-6, 1.5e-6, 3e-6]))
        else:
            x, y = cx, cy + radius + r_apf
    steps = st.sampled_from([-0.25, 0.0, 0.25, 2.0])
    params = ApfParams(k_att=draw(st.sampled_from([5e-324, 1.0, 3.0])),
                       k_rep=draw(st.sampled_from([0.3, 2.0, 1e300, 1e308])))
    return x, y, x + draw(steps), y + draw(steps), tuple(rows), params


@settings(max_examples=300)
@given(query=force_queries())
def test_total_force_matches_the_sum_of_its_helpers(query):
    assert outcome(total_force, *query) == outcome(reference_force, *query)
