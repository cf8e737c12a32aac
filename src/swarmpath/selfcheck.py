"""Built-in numeric checks: integrator fidelity, force-law continuity, symmetry.

These run against closed forms and exact identities, independent of any
scenario, and back the `validate` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .world import ApfParams, ImpedanceParams
from .apf import repulsion_force, total_force
from .impedance import analytic_response, critical_damping, link_coefficients, link_step

HORIZON_S = 5.0
INTEGRATOR_TOL = 1e-3
OVERSHOOT_TOL = 1e-6
CONTINUITY_TOL = 1e-6
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _release_trajectory(params: ImpedanceParams, x0: float, dt: float) -> list[float]:
    """x samples of a link released from rest at x0, one per step, t=0 first."""
    coefficients = link_coefficients(params, dt)
    x, v = x0, 0.0
    xs = [x0]
    for _ in range(int(round(HORIZON_S / dt))):
        x, _, v, _ = link_step(x, 0.0, v, 0.0, 0.0, 0.0, coefficients)
        xs.append(x)
    return xs


def check_integrator(dt: float = 0.01) -> CheckResult:
    """Max deviation of the stepped link from the critically damped closed form."""
    m, k = 1.9, 20.88
    params = ImpedanceParams(m=m, d=critical_damping(m, k), k=k)
    xs = _release_trajectory(params, 1.0, dt)
    worst = max(
        abs(x - analytic_response(params, 1.0, 0.0, n * dt))
        for n, x in enumerate(xs)
    )
    return CheckResult("integrator_vs_analytic", worst, INTEGRATOR_TOL)


def check_no_overshoot(dt: float = 0.01) -> CheckResult:
    """A critically damped release from x0 > 0 must never cross below zero."""
    m, k = 1.9, 20.88
    params = ImpedanceParams(m=m, d=critical_damping(m, k), k=k)
    xs = _release_trajectory(params, 1.0, dt)
    worst = max(0.0, -min(xs))
    return CheckResult("integrator_no_overshoot", worst, OVERSHOOT_TOL)


def check_repulsion_continuity() -> CheckResult:
    """Repulsion must vanish continuously at the onset distance.

    Probes just inside the boundary (d_o = d_safe - delta) and just outside;
    the inside magnitude must shrink toward zero with delta and the outside
    must be exactly zero.
    """
    k_rep, radius, d_safe = 0.3, 0.2, 1.0
    obs = (0.0, 0.0, radius, d_safe, 0.5)  # (cx, cy, radius, r_apf, r_imp)
    worst = 0.0
    for delta in (1e-3, 1e-6):
        magnitude = math.hypot(*repulsion_force(radius + d_safe - delta, 0.0, obs, k_rep))
        # magnitude is k_rep * delta / (d_o * d_safe); hold it to the same scale
        worst = max(worst, magnitude * 1e-6 / delta)
    outside = math.hypot(*repulsion_force(radius + d_safe + 1e-9, 0.0, obs, k_rep))
    worst = max(worst, outside)
    return CheckResult("repulsion_boundary_continuity", worst, CONTINUITY_TOL)


def _rotated(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


def check_rotational_equivariance() -> CheckResult:
    """Rotating a whole configuration must rotate the total force with it."""
    params = ApfParams(k_att=1.0, k_rep=0.3, leader_speed=0.5, goal_threshold=0.1)
    p = (0.7, -0.2)
    goal = (4.0, 1.0)
    obstacles = (  # (cx, cy, radius, r_apf, r_imp)
        (1.4, 0.3, 0.2, 1.2, 0.6),
        (0.2, -1.0, 0.15, 1.0, 0.5),
    )
    base = total_force(*p, *goal, obstacles, params)
    worst = 0.0
    for angle in (0.3, 1.1, 2.5, 4.0):
        rotated_obstacles = tuple((*_rotated(cx, cy, angle), *rest)
                                  for cx, cy, *rest in obstacles)
        fx, fy = total_force(*_rotated(*p, angle), *_rotated(*goal, angle),
                             rotated_obstacles, params)
        bx, by = _rotated(*base, angle)
        worst = max(worst, math.hypot(fx - bx, fy - by))
    return CheckResult("rotational_equivariance", worst, SYMMETRY_TOL)


def run_selfcheck(dt: float = 0.01) -> list[CheckResult]:
    return [
        check_integrator(dt),
        check_no_overshoot(dt),
        check_repulsion_continuity(),
        check_rotational_equivariance(),
    ]
