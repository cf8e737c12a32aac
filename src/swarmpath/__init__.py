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
    ObstacleIndex,
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
from .apf import (
    SingularityError,
    attraction_force,
    leader_step,
    repulsion_force,
    total_force,
)
from .impedance import (
    analytic_response,
    critical_damping,
    link_coefficients,
    link_energy,
    link_step,
)
from .topology import (
    LEADER,
    deflection_offset,
    nearest_obstacle,
    swarm_step,
    update_link_mode,
)
from .baseline import baseline_step
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
    ComparisonReport,
    ape,
    compare,
    completion_time,
    drone_path_length,
    gate_crossings,
    max_pairwise_distance,
    min_obstacle_clearance,
    pair_max_distance,
    path_length,
)

__version__ = "0.1.0"

__all__ = [
    "ApfParams", "Gate", "ImpedanceParams", "Obstacle", "ObstacleIndex", "ScenarioError",
    "ScenarioParseError", "ScenarioSpec", "ScenarioValidationError",
    "TopologyParams", "Vec2", "effective_obstacles", "load_scenario",
    "read_scenario", "serialize_scenario", "validate_spec",
    "SingularityError", "attraction_force",
    "leader_step", "repulsion_force", "total_force",
    "analytic_response", "critical_damping", "link_coefficients",
    "link_energy", "link_step",
    "LEADER", "deflection_offset", "nearest_obstacle", "swarm_step", "update_link_mode",
    "baseline_step",
    "COMPLETED", "CONVENTIONAL_APF", "MAX_STEPS", "STALLED", "SWARMPATH",
    "SimulationTrace", "run",
    "ComparisonReport", "ape", "compare", "completion_time",
    "drone_path_length", "gate_crossings", "max_pairwise_distance",
    "min_obstacle_clearance", "pair_max_distance", "path_length",
    "__version__",
]
