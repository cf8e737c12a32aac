import math

import pytest
from hypothesis import given, strategies as st

from swarmpath.impedance import (
    LinkDynamicState,
    analytic_response,
    critical_damping,
    link_energy,
    link_step,
)
from swarmpath.world import ImpedanceParams, Vec2

PARAMS = ImpedanceParams(m=1.9, d=12.6, k=20.88)

# Hand-evaluated closed form of the default (slightly over-damped) link
# released from rest at x = (1, 0), the exact values one step must land on:
#   a = d / (2 m),  w = sqrt(a^2 - k / m),  l1 = -a + w,  l2 = -a - w
#   x(t) = (l1 exp(l2 t) - l2 exp(l1 t)) / (l1 - l2)
#   v(t) = l1 l2 (exp(l2 t) - exp(l1 t)) / (l1 - l2)
# evaluated to 50 significant digits at t = 0.01 and t = 0.02, then rounded.
HAND_X1 = 0.9994625228510275   # 0.99946252285102753334...
HAND_V1 = -0.10631061701452973  # -0.10631061701452973554...
HAND_X2 = 0.9978969006828299   # 0.99789690068282986085...
HAND_V2 = -0.205686814368342    # -0.20568681436834199569...
HAND_TOL = 1e-15


def test_critical_damping_value():
    assert critical_damping(1.9, 20.88) == pytest.approx(12.597142533130281, abs=1e-12)


def test_critical_damping_requires_positive_args():
    with pytest.raises(ValueError):
        critical_damping(0.0, 1.0)
    with pytest.raises(ValueError):
        critical_damping(1.0, -2.0)


def test_single_step_matches_hand_lattice():
    state = LinkDynamicState(delta_x=Vec2(1.0, 0.0))
    out = link_step(state, Vec2(0.0, 0.0), PARAMS, 0.01)
    assert out.delta_v.x == pytest.approx(HAND_V1, abs=HAND_TOL)
    assert out.delta_x.x == pytest.approx(HAND_X1, abs=HAND_TOL)
    assert out.delta_v.y == 0.0
    assert out.delta_x.y == 0.0


def test_two_steps_match_hand_lattice():
    state = LinkDynamicState(delta_x=Vec2(1.0, 0.0))
    out = link_step(link_step(state, Vec2(0.0, 0.0), PARAMS, 0.01), Vec2(0.0, 0.0), PARAMS, 0.01)
    assert out.delta_x.x == pytest.approx(HAND_X2, abs=HAND_TOL)
    assert out.delta_v.x == pytest.approx(HAND_V2, abs=HAND_TOL)


def test_axes_do_not_couple():
    state = LinkDynamicState(delta_x=Vec2(0.3, -0.8), delta_v=Vec2(0.0, 0.2))
    out = link_step(state, Vec2(1.0, 0.0), PARAMS, 0.01)
    only_x = link_step(LinkDynamicState(Vec2(0.3, 0.0)), Vec2(1.0, 0.0), PARAMS, 0.01)
    assert out.delta_x.x == only_x.delta_x.x
    assert out.delta_v.x == only_x.delta_v.x


def test_analytic_response_value():
    # x(t) = (x0 + (v0 + wn x0) t) exp(-wn t) with wn = sqrt(k/m)
    crit = ImpedanceParams(m=1.9, d=critical_damping(1.9, 20.88), k=20.88)
    assert analytic_response(crit, 1.0, 0.0, 1.0) == pytest.approx(0.15677690184385776, rel=1e-12)
    assert analytic_response(crit, 1.0, 0.0, 0.0) == 1.0


def test_analytic_response_rejects_non_critical_damping():
    underdamped = ImpedanceParams(m=1.9, d=5.0, k=20.88)
    with pytest.raises(ValueError):
        analytic_response(underdamped, 1.0, 0.0, 1.0)


def test_integrator_converges_first_order():
    # The zero-order-hold step is exact, so the stepped release matches the
    # closed form to rounding at every dt instead of converging with dt.
    crit = ImpedanceParams(m=1.9, d=critical_damping(1.9, 20.88), k=20.88)

    def error_at(dt):
        steps = round(2.0 / dt)
        state = LinkDynamicState(delta_x=Vec2(1.0, 0.0))
        worst = 0.0
        for n in range(1, steps + 1):
            state = link_step(state, Vec2(0.0, 0.0), crit, dt)
            worst = max(worst, abs(state.delta_x.x - analytic_response(crit, 1.0, 0.0, n * dt)))
        return worst

    for dt in (0.01, 0.005, 0.0025):
        assert error_at(dt) < 1e-12


def test_critically_damped_release_never_overshoots():
    crit = ImpedanceParams(m=1.9, d=critical_damping(1.9, 20.88), k=20.88)
    state = LinkDynamicState(delta_x=Vec2(1.0, 0.0))
    for _ in range(2000):
        state = link_step(state, Vec2(0.0, 0.0), crit, 0.01)
        assert state.delta_x.x > -1e-6


def test_constant_force_settles_at_static_deflection():
    state = LinkDynamicState()
    f = Vec2(2.0, -1.0)
    for _ in range(5000):
        state = link_step(state, f, PARAMS, 0.01)
    assert state.delta_x.x == pytest.approx(2.0 / PARAMS.k, abs=1e-9)
    assert state.delta_x.y == pytest.approx(-1.0 / PARAMS.k, abs=1e-9)
    assert state.delta_v.norm() < 1e-9


def test_link_step_validates_arguments():
    state = LinkDynamicState()
    with pytest.raises(ValueError):
        link_step(state, Vec2(0, 0), PARAMS, 0.0)
    with pytest.raises(ValueError):
        link_step(state, Vec2(0, 0), ImpedanceParams(m=-1.0), 0.01)


def test_link_energy():
    state = LinkDynamicState(delta_x=Vec2(3.0, 4.0), delta_v=Vec2(1.0, 0.0))
    expected = 0.5 * PARAMS.m * 1.0 + 0.5 * PARAMS.k * 25.0
    assert link_energy(state, PARAMS) == pytest.approx(expected)


@given(
    x0=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    y0=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    m=st.floats(min_value=0.5, max_value=5.0),
    k=st.floats(min_value=1.0, max_value=50.0),
)
def test_unforced_link_dissipates(x0, y0, m, k):
    # With no external force the link can only lose energy.  The step is the
    # exact zero-order-hold solution, so this holds at any dt; dt = 0.01 is
    # the scenarios' step.
    params = ImpedanceParams(m=m, d=critical_damping(m, k), k=k)
    state = LinkDynamicState(delta_x=Vec2(x0, y0))
    energy = link_energy(state, params)
    for _ in range(200):
        state = link_step(state, Vec2(0.0, 0.0), params, 0.01)
        new_energy = link_energy(state, params)
        assert new_energy <= energy + 1e-12
        energy = new_energy


@given(scale=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_step_is_linear_in_state_and_force(scale):
    base = LinkDynamicState(delta_x=Vec2(0.4, -0.2), delta_v=Vec2(0.1, 0.3))
    scaled = LinkDynamicState(delta_x=base.delta_x * scale, delta_v=base.delta_v * scale)
    out = link_step(base, Vec2(1.0, -2.0), PARAMS, 0.01)
    out_scaled = link_step(scaled, Vec2(scale * 1.0, scale * -2.0), PARAMS, 0.01)
    assert out_scaled.delta_x.x == pytest.approx(scale * out.delta_x.x, abs=1e-12)
    assert out_scaled.delta_v.y == pytest.approx(scale * out.delta_v.y, abs=1e-12)


def closed_form(params, x0, v0, f, t):
    """Textbook response (x, v) at t of one axis under constant force f.

    The rest point moves to f / k; around it the free response is written on
    the characteristic roots of m s^2 + d s + k, split by the sign of
    d^2 - 4 m k.
    """
    m, d, k = params.m, params.d, params.k
    y0 = x0 - f / k
    a = d / (2.0 * m)
    disc = a * a - k / m
    if d == critical_damping(m, k):
        e = math.exp(-a * t)
        c = v0 + a * y0
        return f / k + (y0 + c * t) * e, (v0 - a * c * t) * e
    if disc < 0:
        w = math.sqrt(-disc)
        e = math.exp(-a * t)
        c = (v0 + a * y0) / w
        y = e * (y0 * math.cos(w * t) + c * math.sin(w * t))
        v = e * (v0 * math.cos(w * t) - (a * c + w * y0) * math.sin(w * t))
        return f / k + y, v
    fast = -a - math.sqrt(disc)
    slow = (k / m) / fast  # the roots multiply to k / m
    e_slow, e_fast = math.exp(slow * t), math.exp(fast * t)
    c_slow = (v0 - fast * y0) / (slow - fast)
    c_fast = (slow * y0 - v0) / (slow - fast)
    return (f / k + c_slow * e_slow + c_fast * e_fast,
            c_slow * slow * e_slow + c_fast * fast * e_fast)


# The sweep_d damping values around critical: under-, exactly critically and
# over-damped for m = 1.9, k = 20.88.
REGIMES = pytest.mark.parametrize(
    "d", [12.5, critical_damping(1.9, 20.88), 12.8], ids=["under", "critical", "over"])


@REGIMES
@pytest.mark.parametrize("force", [Vec2(0.0, 0.0), Vec2(2.0, -1.0)], ids=["free", "forced"])
def test_step_matches_closed_form_in_each_damping_regime(d, force):
    params = ImpedanceParams(m=1.9, d=d, k=20.88)
    x0, v0 = Vec2(0.7, -0.3), Vec2(0.2, 0.5)
    state = LinkDynamicState(delta_x=x0, delta_v=v0)
    dt = 0.01
    for n in range(1, 301):
        state = link_step(state, force, params, dt)
        for axis in ("x", "y"):
            x, v = closed_form(params, getattr(x0, axis), getattr(v0, axis),
                               getattr(force, axis), n * dt)
            assert abs(getattr(state.delta_x, axis) - x) < 1e-12
            assert abs(getattr(state.delta_v, axis) - v) < 1e-12


@REGIMES
def test_one_long_step_lands_on_closed_form(d):
    # Exactness does not depend on dt: one 3 s step lands on the closed form.
    params = ImpedanceParams(m=1.9, d=d, k=20.88)
    out = link_step(LinkDynamicState(Vec2(0.7, 0.0), Vec2(0.2, 0.0)), Vec2(2.0, 0.0), params, 3.0)
    x, v = closed_form(params, 0.7, 0.2, 2.0, 3.0)
    assert out.delta_x.x == pytest.approx(x, abs=1e-12)
    assert out.delta_v.x == pytest.approx(v, abs=1e-12)


def test_heavily_overdamped_large_step_stays_finite():
    # w dt = 2.6e7 here, so exp(-a dt) * cosh(w dt) would read 0 * inf.
    params = ImpedanceParams(m=1.9, d=1e4, k=20.88)
    state = LinkDynamicState(Vec2(0.7, -0.3), Vec2(0.2, 0.5))
    out = link_step(state, Vec2(2.0, -1.0), params, 1e4)
    for value in (*out.delta_x.as_tuple(), *out.delta_v.as_tuple()):
        assert math.isfinite(value)
    x, v = closed_form(params, 0.7, 0.2, 2.0, 1e4)
    assert out.delta_x.x == pytest.approx(x, rel=1e-12, abs=0.0)
    assert out.delta_v.x == pytest.approx(v, rel=1e-12, abs=0.0)


@given(
    m=st.floats(min_value=1e-3, max_value=1e3),
    d=st.floats(min_value=1e-3, max_value=1e3),
    k=st.floats(min_value=1e-3, max_value=1e3),
    dt=st.floats(min_value=1e-6, max_value=1e6),
)
def test_step_stays_finite_for_any_positive_parameters(m, d, k, dt):
    state = LinkDynamicState(Vec2(1.0, -2.0), Vec2(3.0, -4.0))
    out = link_step(state, Vec2(5.0, -6.0), ImpedanceParams(m=m, d=d, k=k), dt)
    for value in (*out.delta_x.as_tuple(), *out.delta_v.as_tuple()):
        assert math.isfinite(value)
