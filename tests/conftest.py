import json
import pathlib

import pytest
from hypothesis import settings, strategies as st

from swarmpath.world import (
    ApfParams,
    Obstacle,
    ScenarioSpec,
    TopologyParams,
    Vec2,
    serialize_scenario,
)

# Every property draws the same examples on every run, so a tier-1 result
# repeats; each test's own max_examples still sets how many.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

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


def sweep_traces(sweep, monkeypatch) -> list:
    """run_sweep(sweep)'s result and the trace of each of its points, in order."""
    from swarmpath import sweep as sweep_module

    traces = []
    run = sweep_module.run

    def recorded(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    with monkeypatch.context() as m:
        m.setattr(sweep_module, "run", recorded)
        result = sweep_module.run_sweep(sweep)
    return result, traces


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


BIG_INT = "1" + "0" * 400  # a JSON integer beyond float range, within json's digit limit

# Arbitrary JSON, weighted toward what a number field must reject: integers
# far beyond float range, non-finite floats, bools, strings and containers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers()
    | st.builds(lambda n, sign: sign * 10 ** n, st.integers(309, 1000), st.sampled_from((1, -1))),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def plant_json(data, doc):
    """Replace or add one key anywhere in doc with a drawn JSON value, in place.

    The walk descends from the top level through objects and arrays; at an
    object it may also pick a key the document does not have.
    """
    node = doc
    while True:
        keys = list(range(len(node))) if isinstance(node, list) else [*node, data.draw(st.text(max_size=6))]
        key = data.draw(st.sampled_from(keys))
        child = node.get(key) if isinstance(node, dict) else node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    node[key] = data.draw(JSON_VALUES)
    return doc


def full_scenario_doc() -> dict:
    """A valid scenario document with every key present: one post, one gate, every block."""
    doc = json.loads(serialize_scenario(one_pole_spec()))
    doc["gates"] = [{"pole_a": dict(doc["obstacles"][0], center=[3.0, 0.7]),
                     "pole_b": dict(doc["obstacles"][0], center=[3.0, -0.7])}]
    return doc
