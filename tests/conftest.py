import json
import pathlib

import pytest

from swarmpath.world import (
    ApfParams,
    Obstacle,
    ScenarioSpec,
    TopologyParams,
    Vec2,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

# The 4x4 grid formation (offsets -0.6, -0.2, 0.2, 0.6 m on each axis) covers
# per-drone indexing beyond the default four drones.
GRID = (-0.6, -0.2, 0.2, 0.6)


def grid16_forest_doc() -> dict:
    """case2_forest flown by the 16-drone grid formation, as a scenario document."""
    doc = json.loads((SCENARIO_DIR / "case2_forest.json").read_text(encoding="utf-8"))
    doc["formation_offsets"] = [[x, y] for x in GRID for y in GRID]
    return doc


@pytest.fixture(scope="session")
def scenario_dir() -> pathlib.Path:
    return SCENARIO_DIR


def straight_spec(**overrides) -> ScenarioSpec:
    """Obstacle-free run along +x, short enough for fast tests."""
    defaults = dict(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def one_pole_spec(**overrides) -> ScenarioSpec:
    """Single off-axis obstacle that followers must slip past."""
    defaults = dict(
        start=Vec2(0.0, 0.0),
        goal=Vec2(4.0, 0.0),
        obstacles=(Obstacle(Vec2(2.0, 0.45), 0.1, 0.4, 0.3),),
        apf=ApfParams(k_att=1.0, k_rep=0.3, leader_speed=0.5, goal_threshold=0.1),
        topology=TopologyParams(k_impF=0.6, hysteresis=0.1, velocity_gain=0.0),
        max_steps=2500,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)
