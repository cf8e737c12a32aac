"""Deterministic 2D swarm path planning.

A virtual leader descends an artificial potential field at constant speed;
follower drones hold formation through per-drone impedance links that
re-anchor onto nearby obstacles and push the drone around them.  A
conventional potential-field swarm (every drone independent) is included as
the comparison baseline.
"""

from .world import (
    ApfParams,
    Gate,
    ImpedanceParams,
    Obstacle,
    ScenarioError,
    ScenarioParseError,
    ScenarioSpec,
    ScenarioValidationError,
    TopologyParams,
    Vec2,
    effective_obstacles,
    load_scenario,
    read_scenario,
    serialize_scenario,
    validate_spec,
)
from .apf import SingularityError
from .impedance import (
    analytic_response,
    critical_damping,
    link_coefficients,
)
from .simulator import (
    COMPLETED,
    CONVENTIONAL_APF,
    MAX_STEPS,
    STALLED,
    SWARMPATH,
    SimulationTrace,
    run,
)
from .metrics import (
    ape,
    compare,
    completion_time,
    drone_path_lengths,
    gate_crossings,
    max_pairwise_distance,
    min_obstacle_clearance,
    pair_max_distances,
    path_length,
)

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# Every public name imported above; submodules are not exports.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
