"""Built-in numeric checks: integrator fidelity, force-law continuity, symmetry.

These run against closed forms and exact identities, independent of any
scenario, and back the `validate` CLI command.  They drive the kernels that
runs call: the link checks topology.swarm_step, the field checks apf.descend.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

from .world import ImpedanceParams, Obstacle, ScenarioSpec, Vec2
from .impedance import analytic_response, critical_damping, link_coefficients
from .topology import LEADER, LeaderTrack, swarm_step

HORIZON_S = 5.0
INTEGRATOR_TOL = 1e-3
OVERSHOOT_TOL = 1e-6
CONTINUITY_TOL = 1e-6
SYMMETRY_TOL = 1e-9
LINK = ImpedanceParams(m=1.9, d=critical_damping(1.9, 20.88), k=20.88)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def release(dt: float) -> array:
    """The rows (x, y), flat and t=0 first, of a follower that swarm_step
    releases from rest at (1.0, 0.0) over HORIZON_S.  Its leader rests on the
    origin (latched at row 1, row() pads the rest) and its offset is zero, so
    its slot is (0.0, 0.0) and its x is the link's deviation.  With no
    obstacle and a damped link, the release meets no fault."""
    steps = round(HORIZON_S / dt)
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(0.0, 0.0), dt=dt)
    track = LeaderTrack(spec)
    track.row(steps)
    positions, modes = array("d", (1.0, 0.0)), array("q", (LEADER,))
    swarm_step((0.0, 0.0), steps, track, (0.0, 0.0), spec,
               link_coefficients(LINK, dt), positions, modes)
    return positions


def check_integrator(dt: float = 0.01) -> CheckResult:
    """Max deviation of the stepped link from the critically damped closed form."""
    worst = max(abs(x - analytic_response(LINK, 1.0, 0.0, n * dt))
                for n, x in enumerate(release(dt)[::2]))
    return CheckResult("integrator_vs_analytic", worst, INTEGRATOR_TOL)


def check_no_overshoot(dt: float = 0.01) -> CheckResult:
    """A critically damped release from x0 > 0 must never cross below zero."""
    worst = max(0.0, -min(release(dt)[::2]))
    return CheckResult("integrator_no_overshoot", worst, OVERSHOOT_TOL)


def _first_step(spec: ScenarioSpec) -> tuple[float, float]:
    """The unit direction of the first step that apf.descend takes from spec's start."""
    x0, y0, x1, y1 = LeaderTrack(replace(spec, max_steps=1)).xy
    length = math.hypot(x1 - x0, y1 - y0)
    return (x1 - x0) / length, (y1 - y0) / length


def check_repulsion_continuity() -> CheckResult:
    """Repulsion must vanish continuously at the onset distance.

    The goal is off the obstacle's axis, so repulsion turns the first descent
    step away from the pure-attraction step from the same point.  Just inside
    the boundary (d_o = d_safe - delta) the turn must shrink toward zero with
    delta; just outside, the step must be the pure-attraction step.
    """
    radius, d_safe = 0.2, 1.0
    post = Obstacle(Vec2(0.0, 0.0), radius, d_safe, 0.5)

    def turn(d_o: float) -> float:
        spec = ScenarioSpec(start=Vec2(radius + d_o, 0.0), goal=Vec2(1.2, 3.0))
        return math.dist(_first_step(replace(spec, obstacles=(post,))), _first_step(spec))

    # the turn is about k_rep * delta / (d_o * d_safe * |attraction|); hold it to one scale
    worst = max(max(turn(d_safe - delta) * 1e-6 / delta for delta in (1e-3, 1e-6)),
                turn(d_safe + 1e-9))
    return CheckResult("repulsion_boundary_continuity", worst, CONTINUITY_TOL)


def _rotated(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


def check_rotational_equivariance() -> CheckResult:
    """Rotating a whole configuration must rotate the first descent step with it."""
    p, goal = (0.7, -0.2), (4.0, 1.0)
    # (cx, cy, radius, r_apf, r_imp)
    obstacles = ((1.4, 0.3, 0.2, 1.2, 0.6), (0.2, -1.0, 0.15, 1.0, 0.5))

    def step(angle: float) -> tuple[float, float]:
        return _first_step(ScenarioSpec(
            start=Vec2(*_rotated(*p, angle)), goal=Vec2(*_rotated(*goal, angle)),
            obstacles=tuple(Obstacle(Vec2(*_rotated(cx, cy, angle)), *rest)
                            for cx, cy, *rest in obstacles)))

    base = step(0.0)
    worst = max(math.dist(step(angle), _rotated(*base, angle))
                for angle in (0.3, 1.1, 2.5, 4.0))
    return CheckResult("rotational_equivariance", worst, SYMMETRY_TOL)


def run_selfcheck() -> list[CheckResult]:
    return [
        check_integrator(),
        check_no_overshoot(),
        check_repulsion_continuity(),
        check_rotational_equivariance(),
    ]
