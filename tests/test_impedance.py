import math

import pytest
from hypothesis import given, strategies as st

from swarmpath.impedance import (
    analytic_response,
    critical_damping,
    link_coefficients,
    link_energy,
    link_step,
)
from swarmpath.world import ImpedanceParams

PARAMS = ImpedanceParams(m=1.9, d=12.6, k=20.88)
STEP = link_coefficients(PARAMS, 0.01)

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
    dx, dy, vx, vy = link_step(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, STEP)
    assert vx == pytest.approx(HAND_V1, abs=HAND_TOL)
    assert dx == pytest.approx(HAND_X1, abs=HAND_TOL)
    assert vy == 0.0
    assert dy == 0.0


def test_two_steps_match_hand_lattice():
    dx, dy, vx, vy = link_step(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, STEP)
    dx, _, vx, _ = link_step(dx, dy, vx, vy, 0.0, 0.0, STEP)
    assert dx == pytest.approx(HAND_X2, abs=HAND_TOL)
    assert vx == pytest.approx(HAND_V2, abs=HAND_TOL)


def test_axes_do_not_couple():
    out = link_step(0.3, -0.8, 0.0, 0.2, 1.0, 0.0, STEP)
    only_x = link_step(0.3, 0.0, 0.0, 0.0, 1.0, 0.0, STEP)
    assert out[0] == only_x[0]
    assert out[2] == only_x[2]


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
        coefficients = link_coefficients(crit, dt)
        x, y, vx, vy = 1.0, 0.0, 0.0, 0.0
        worst = 0.0
        for n in range(1, steps + 1):
            x, y, vx, vy = link_step(x, y, vx, vy, 0.0, 0.0, coefficients)
            worst = max(worst, abs(x - analytic_response(crit, 1.0, 0.0, n * dt)))
        return worst

    for dt in (0.01, 0.005, 0.0025):
        assert error_at(dt) < 1e-12


def test_critically_damped_release_never_overshoots():
    crit = ImpedanceParams(m=1.9, d=critical_damping(1.9, 20.88), k=20.88)
    coefficients = link_coefficients(crit, 0.01)
    state = (1.0, 0.0, 0.0, 0.0)
    for _ in range(2000):
        state = link_step(*state, 0.0, 0.0, coefficients)
        assert state[0] > -1e-6


def test_constant_force_settles_at_static_deflection():
    dx, dy, vx, vy = 0.0, 0.0, 0.0, 0.0
    for _ in range(5000):
        dx, dy, vx, vy = link_step(dx, dy, vx, vy, 2.0, -1.0, STEP)
    assert dx == pytest.approx(2.0 / PARAMS.k, abs=1e-9)
    assert dy == pytest.approx(-1.0 / PARAMS.k, abs=1e-9)
    assert math.hypot(vx, vy) < 1e-9


def test_link_step_validates_arguments():
    with pytest.raises(ValueError):
        link_coefficients(PARAMS, 0.0)
    with pytest.raises(ValueError):
        link_coefficients(ImpedanceParams(m=-1.0), 0.01)


def test_link_energy():
    expected = 0.5 * PARAMS.m * 1.0 + 0.5 * PARAMS.k * 25.0
    assert link_energy(3.0, 4.0, 1.0, 0.0, PARAMS) == pytest.approx(expected)


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
    coefficients = link_coefficients(params, 0.01)
    state = (x0, y0, 0.0, 0.0)
    energy = link_energy(*state, params)
    for _ in range(200):
        state = link_step(*state, 0.0, 0.0, coefficients)
        new_energy = link_energy(*state, params)
        assert new_energy <= energy + 1e-12
        energy = new_energy


@given(scale=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_step_is_linear_in_state_and_force(scale):
    base = (0.4, -0.2, 0.1, 0.3)
    out = link_step(*base, 1.0, -2.0, STEP)
    out_scaled = link_step(*(v * scale for v in base), scale * 1.0, scale * -2.0, STEP)
    assert out_scaled[0] == pytest.approx(scale * out[0], abs=1e-12)
    assert out_scaled[3] == pytest.approx(scale * out[3], abs=1e-12)


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
@pytest.mark.parametrize("force", [(0.0, 0.0), (2.0, -1.0)], ids=["free", "forced"])
def test_step_matches_closed_form_in_each_damping_regime(d, force):
    params = ImpedanceParams(m=1.9, d=d, k=20.88)
    x0, v0 = (0.7, -0.3), (0.2, 0.5)
    dt = 0.01
    coefficients = link_coefficients(params, dt)
    state = (*x0, *v0)
    for n in range(1, 301):
        state = link_step(*state, *force, coefficients)
        for axis in (0, 1):
            x, v = closed_form(params, x0[axis], v0[axis], force[axis], n * dt)
            assert abs(state[axis] - x) < 1e-12
            assert abs(state[2 + axis] - v) < 1e-12


@REGIMES
def test_one_long_step_lands_on_closed_form(d):
    # Exactness does not depend on dt: one 3 s step lands on the closed form.
    params = ImpedanceParams(m=1.9, d=d, k=20.88)
    dx, _, vx, _ = link_step(0.7, 0.0, 0.2, 0.0, 2.0, 0.0, link_coefficients(params, 3.0))
    x, v = closed_form(params, 0.7, 0.2, 2.0, 3.0)
    assert dx == pytest.approx(x, abs=1e-12)
    assert vx == pytest.approx(v, abs=1e-12)


def test_heavily_overdamped_large_step_stays_finite():
    # w dt = 2.6e7 here, so exp(-a dt) * cosh(w dt) would read 0 * inf.
    params = ImpedanceParams(m=1.9, d=1e4, k=20.88)
    out = link_step(0.7, -0.3, 0.2, 0.5, 2.0, -1.0, link_coefficients(params, 1e4))
    for value in out:
        assert math.isfinite(value)
    x, v = closed_form(params, 0.7, 0.2, 2.0, 1e4)
    assert out[0] == pytest.approx(x, rel=1e-12, abs=0.0)
    assert out[2] == pytest.approx(v, rel=1e-12, abs=0.0)


@given(
    m=st.floats(min_value=1e-3, max_value=1e3),
    d=st.floats(min_value=1e-3, max_value=1e3),
    k=st.floats(min_value=1e-3, max_value=1e3),
    dt=st.floats(min_value=1e-6, max_value=1e6),
)
def test_step_stays_finite_for_any_positive_parameters(m, d, k, dt):
    out = link_step(1.0, -2.0, 3.0, -4.0, 5.0, -6.0,
                    link_coefficients(ImpedanceParams(m=m, d=d, k=k), dt))
    for value in out:
        assert math.isfinite(value)
