"""Impedance link release response and integrator accuracy.

A critically damped link released from a 1 m deviation should creep back to
the slot without ever crossing zero.  The closed form for that trajectory is
x(t) = (x0 + (v0 + wn*x0) t) exp(-wn t).  The simulation loop steps the link
with its exact zero-order-hold discretization, so the stepped trajectory
sits on the closed form to rounding at every dt, coarse or fine.  Numbers
below make that explicit."""

import argparse

from swarmpath import (
    ImpedanceParams,
    analytic_response,
    critical_damping,
    link_coefficients,
    link_step,
)


def worst_error(params: ImpedanceParams, dt: float, horizon: float) -> float:
    coefficients = link_coefficients(params, dt)
    x, y, vx, vy = 1.0, 0.0, 0.0, 0.0
    worst = 0.0
    for n in range(1, round(horizon / dt) + 1):
        x, y, vx, vy = link_step(x, y, vx, vy, 0.0, 0.0, coefficients)
        worst = max(worst, abs(x - analytic_response(params, 1.0, 0.0, n * dt)))
    return worst


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=5.0, help="seconds")
    args = parser.parse_args()

    m, k = 1.9, 20.88
    d = critical_damping(m, k)
    params = ImpedanceParams(m=m, d=d, k=k)
    print(f"m={m} k={k}: critical damping d = {d:.6f}")

    print("release from 1 m, sampled against the closed form:")
    for t in (0.1, 0.3, 1.0, 2.0, 5.0):
        print(f"  x({t:>4}) = {analytic_response(params, 1.0, 0.0, t):.6f}")

    print(f"worst |integrated - analytic| over {args.horizon} s:")
    for dt in (0.05, 0.02, 0.01, 0.005, 0.001):
        print(f"  dt={dt:<6} -> {worst_error(params, dt, args.horizon):.2e}")

    coefficients = link_coefficients(params, 0.01)
    x, y, vx, vy = 1.0, 0.0, 0.0, 0.0
    low = 0.0
    for _ in range(round(args.horizon / 0.01)):
        x, y, vx, vy = link_step(x, y, vx, vy, 0.0, 0.0, coefficients)
        low = min(low, x)
    print(f"most negative excursion while settling: {low:.2e} (no overshoot)")


if __name__ == "__main__":
    main()
