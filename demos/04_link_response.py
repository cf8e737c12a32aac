"""Impedance link release response and integrator accuracy.

A critically damped link released from a 1 m deviation should creep back to
the slot without ever crossing zero.  The closed form for that trajectory is
x(t) = (x0 + (v0 + wn*x0) t) exp(-wn t).  The simulation loop steps the link
with its exact zero-order-hold discretization, so the stepped trajectory
sits on the closed form to rounding at every dt, coarse or fine.  The numbers
below are `swarmpath-sim validate`'s two link checks, which release a
follower through the same kernel that every run calls."""

import argparse

from swarmpath import analytic_response
from swarmpath.selfcheck import HORIZON_S, LINK, check_integrator, check_no_overshoot


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    print(f"m={LINK.m} k={LINK.k}: critical damping d = {LINK.d:.6f}")

    print("release from 1 m, sampled against the closed form:")
    for t in (0.1, 0.3, 1.0, 2.0, 5.0):
        print(f"  x({t:>4}) = {analytic_response(LINK, 1.0, 0.0, t):.6f}")

    print(f"worst |integrated - analytic| over {HORIZON_S} s:")
    for dt in (0.05, 0.02, 0.01, 0.005, 0.001):
        print(f"  dt={dt:<6} -> {check_integrator(dt).max_error:.2e}")

    # 0.0 - 0.0 is +0.0, where -0.0 would print a sign
    low = 0.0 - check_no_overshoot(0.01).max_error
    print(f"most negative excursion while settling: {low:.2e} (no overshoot)")


if __name__ == "__main__":
    main()
