"""Follower link dynamics: a per-axis mass-spring-damper on the formation error.

The link state is the deviation (dx, dy) of a drone from its desired
formation slot and its rate (vx, vy), as plain floats.  m * a + d * v + k * x
= f is linear and time-invariant, and the force is held constant over each
step, so the zero-order-hold update [x, v] <- Phi(dt) [x, v] + Gamma(dt) f is
the exact solution at the step ends, not an approximation: the stepped link
follows the continuous one for any dt, including its dissipation and its
no-overshoot release at critical damping.  Phi and Gamma are evaluated in
closed form by link_coefficients, once per run.  The two axes are
fully independent.
"""

from __future__ import annotations

import math
import sys

from .world import ImpedanceParams

Coefficients = tuple[float, float, float, float, float, float]


def critical_damping(m: float, k: float) -> float:
    """Damping coefficient 2*sqrt(m*k) that separates the oscillatory regime."""
    if not (m > 0 and k > 0):
        raise ValueError(f"m and k must be positive, got m={m} k={k}")
    return 2.0 * math.sqrt(m * k)


def link_coefficients(params: ImpedanceParams, dt: float) -> Coefficients:
    """Exact one-step coefficients (phi00, phi01, phi10, phi11, gamma0, gamma1).

    With a = d / (2m) and wn^2 = k / m, Phi(t) = exp(-a t) (C I + S (A + a I))
    for the system matrix A = [[0, 1], [-wn^2, -2a]], where C, S are
    cos(w t), sin(w t) / w when under-damped (w^2 = wn^2 - a^2), 1, t when
    critically damped and cosh(w t), sinh(w t) / w when over-damped
    (w^2 = a^2 - wn^2).  A constant force f moves the rest point to f / k, so
    Gamma = (I - Phi) [1 / k, 0].  Every factor stays finite for any finite
    dt > 0: the over-damped case is written on the slow decay rate
    a - w = wn^2 / (a + w), so no exp(-a dt) * cosh(w dt) can become 0 * inf.
    Raises ValueError unless m, d, k and dt are positive and finite.
    """
    m, d, k = params.m, params.d, params.k
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (0 < m < math.inf and 0 < d < math.inf and 0 < k < math.inf):
        raise ValueError(f"m, d, k must be positive and finite, got m={m} d={d} k={k}")
    a = d / (2.0 * m)
    wn2 = k / m
    wn = math.sqrt(wn2)
    w2 = (a - wn) * (a + wn)
    if abs(w2) <= 4.0 * sys.float_info.epsilon * wn2:  # d == critical_damping(m, k)
        decay = math.exp(-a * dt)
        c, s = decay, dt * decay
    elif w2 < 0.0:  # under-damped
        w = math.sqrt(-w2)
        decay = math.exp(-a * dt)
        c, s = decay * math.cos(w * dt), decay * math.sin(w * dt) / w
    else:  # over-damped
        w = math.sqrt(w2)
        slow = math.exp(-wn2 / (a + w) * dt)  # exp((w - a) dt)
        fast = math.expm1(-2.0 * w * dt)      # exp(-2 w dt) - 1
        c, s = slow * (1.0 + 0.5 * fast), -slow * fast / (2.0 * w)
    phi00, phi01 = c + a * s, s
    phi10, phi11 = -wn2 * s, c - a * s
    return phi00, phi01, phi10, phi11, (1.0 - phi00) / k, -phi10 / k


def link_step(dx: float, dy: float, vx: float, vy: float, fx: float, fy: float,
              coefficients: Coefficients) -> tuple[float, float, float, float]:
    """Advance the link (dx, dy, vx, vy) one step under external force (fx, fy).

    Exact for the force held constant over the step (zero-order hold): the
    result is the continuous response one step later, per axis one 2x2
    matrix-vector product with link_coefficients(params, dt).
    """
    p00, p01, p10, p11, g0, g1 = coefficients
    return (p00 * dx + p01 * vx + g0 * fx, p00 * dy + p01 * vy + g0 * fy,
            p10 * dx + p11 * vx + g1 * fx, p10 * dy + p11 * vy + g1 * fy)


def analytic_response(params: ImpedanceParams, x0: float, v0: float, t: float) -> float:
    """Closed-form unforced response of one axis, critically damped case only.

    x(t) = (x0 + (v0 + wn*x0) * t) * exp(-wn * t) with wn = sqrt(k/m).
    Raises ValueError unless d matches 2*sqrt(m*k) to 1e-9 relative, since the
    closed form does not hold away from critical damping.
    """
    crit = critical_damping(params.m, params.k)
    if abs(params.d - crit) > 1e-9 * crit:
        raise ValueError(
            f"closed form needs critical damping d={crit!r}, got d={params.d!r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    wn = math.sqrt(params.k / params.m)
    return (x0 + (v0 + wn * x0) * t) * math.exp(-wn * t)
