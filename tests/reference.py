"""One-term references that only the tests read.

The fused kernels write these terms out inline: apf.total_force (and the
descent, apf.descend) the attraction, topology.swarm_step the deflection.
The properties in tests/test_apf.py and tests/test_step_kernel.py rebuild
those kernels from these helpers and require every bit, and every
SingularityError text, to match.
"""

import math

from swarmpath.apf import SingularityError
from swarmpath.topology import NO_DIRECTION
from swarmpath.world import TopologyParams


def attraction_force(x: float, y: float, gx: float, gy: float,
                     k_att: float) -> tuple[float, float]:
    """Linear pull toward the goal (gx, gy), k_att * (goal - p)."""
    return (gx - x) * k_att, (gy - y) * k_att


def deflection_offset(x: float, y: float, obs: tuple,
                      params: TopologyParams) -> tuple[float, float]:
    """Radial push-out added to the formation slot of a drone linked to obs.

    Magnitude k_impF * r_imp, directed from the obstacle center through the
    drone at (x, y).
    """
    cx, cy, _, _, r_imp = obs
    ox, oy = x - cx, y - cy
    dist = math.hypot(ox, oy)
    scale = params.k_impF * r_imp / dist if dist else math.inf
    if not math.isfinite(scale):
        raise SingularityError(NO_DIRECTION.format(dist, cx, cy))
    return ox * scale, oy * scale
