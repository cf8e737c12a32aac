import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from swarmpath.world import (
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
    serialize_scenario,
    validate_spec,
)
from conftest import BIG_INT, full_scenario_doc, plant_json, straight_spec


def test_vec2_dist():
    assert Vec2(1.0, 1.0).dist(Vec2(4.0, 5.0)) == 5.0


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, float("inf"))


def test_default_formation_is_square():
    spec = straight_spec()
    assert spec.formation_offsets == (
        Vec2(0.4, 0.4),
        Vec2(0.4, -0.4),
        Vec2(-0.4, 0.4),
        Vec2(-0.4, -0.4),
    )


def test_effective_obstacles_orders_gate_poles_after_obstacles():
    ob = Obstacle(Vec2(1.0, 0.0), 0.1, 0.4, 0.3)
    pa = Obstacle(Vec2(2.0, 0.6), 0.1, 0.4, 0.3)
    pb = Obstacle(Vec2(2.0, -0.6), 0.1, 0.4, 0.3)
    spec = straight_spec(obstacles=(ob,), gates=(Gate(pa, pb),))
    assert effective_obstacles(spec) == (ob, pa, pb)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda s: dataclasses.replace(s, obstacles=(Obstacle(Vec2(1, 0), -0.1, 0.4, 0.3),)), "radius"),
        (lambda s: dataclasses.replace(s, obstacles=(Obstacle(Vec2(1, 0), 0.5, 0.6, 0.4),)), "r_imp"),
        (lambda s: dataclasses.replace(s, obstacles=(Obstacle(Vec2(1, 0), 0.1, 0.3, 0.4),)), "r_apf"),
        (lambda s: dataclasses.replace(s, formation_offsets=()), "formation"),
        (lambda s: dataclasses.replace(s, formation_offsets=(Vec2(0, 0), Vec2(0, 0))), "distinct"),
        (lambda s: dataclasses.replace(s, impedance=ImpedanceParams(m=0.0)), "m"),
        (lambda s: dataclasses.replace(s, impedance=ImpedanceParams(d=-1.0)), "d"),
        (lambda s: dataclasses.replace(s, impedance=ImpedanceParams(k=0.0)), "k"),
        (lambda s: dataclasses.replace(s, apf=ApfParams(k_att=0.0)), "k_att"),
        (lambda s: dataclasses.replace(s, apf=ApfParams(k_att=math.inf)), "k_att=inf"),
        (lambda s: dataclasses.replace(s, apf=ApfParams(k_rep=0.0)), "k_rep"),
        (lambda s: dataclasses.replace(s, apf=ApfParams(leader_speed=0.0)), "leader_speed"),
        (lambda s: dataclasses.replace(s, apf=ApfParams(goal_threshold=0.0)), "goal_threshold"),
        (lambda s: dataclasses.replace(s, topology=TopologyParams(k_impF=-0.5)), "k_impF"),
        (lambda s: dataclasses.replace(s, topology=TopologyParams(hysteresis=-0.1)), "hysteresis"),
        (lambda s: dataclasses.replace(s, dt=0.0), "dt"),
        (lambda s: dataclasses.replace(s, max_steps=0), "max_steps"),
    ],
)
def test_validate_rejects_bad_specs(mutate, message):
    spec = mutate(straight_spec())
    with pytest.raises(ScenarioValidationError, match=message):
        validate_spec(spec)


def test_validate_rejects_coincident_gate_poles():
    pole = Obstacle(Vec2(2.0, 0.0), 0.1, 0.4, 0.3)
    spec = straight_spec(gates=(Gate(pole, pole),))
    with pytest.raises(ScenarioValidationError):
        validate_spec(spec)


@pytest.mark.parametrize("doc, message", [
    ('{"start": [1.7e308, 0], "goal": [1.7e308, 1], "formation_offsets": [[1e308, 0]]}',
     r"^formation_offsets\[0\]: the start slot start \+ offset = \(inf, 0\.0\) is not finite$"),
    ('{"start": [0, 0], "goal": [-1.7e308, 0], "formation_offsets": [[0, 1], [-1e308, 0]]}',
     r"^formation_offsets\[1\]: the goal slot goal \+ offset = \(-inf, 0\.0\) is not finite$"),
])
def test_load_rejects_a_slot_that_is_not_finite(doc, message):
    # Each drone's path starts on start + offset and ends on goal + offset,
    # so both slots must be finite; frame 0 is then finite too.
    with pytest.raises(ScenarioValidationError, match=message):
        load_scenario(doc)


def test_load_rejects_unknown_keys():
    with pytest.raises(ScenarioParseError, match="unknown"):
        load_scenario('{"start": [0, 0], "goal": [1, 0], "warp_drive": true}')
    with pytest.raises(ScenarioParseError, match="unknown apf keys"):
        load_scenario('{"start": [0, 0], "goal": [1, 0], "apf": {"k_rep": 1, "warp": 2}}')


def test_load_rejects_bool_as_number():
    with pytest.raises(ScenarioParseError):
        load_scenario('{"start": [0, 0], "goal": [1, 0], "dt": true}')


def test_load_rejects_incomplete_obstacle():
    text = '{"start": [0, 0], "goal": [1, 0], "obstacles": [{"center": [1, 0], "radius": 0.1}]}'
    with pytest.raises(ScenarioParseError):
        load_scenario(text)


def test_load_minimal_scenario_uses_defaults():
    spec = load_scenario('{"start": [0, 0], "goal": [1, 0]}')
    assert spec == straight_spec()


def test_serialize_round_trip_bespoke_scenario():
    spec = straight_spec(
        obstacles=(Obstacle(Vec2(1.5, 0.25), 0.1, 0.5, 0.3),),
        gates=(Gate(Obstacle(Vec2(3, 0.7), 0.1, 0.4, 0.3), Obstacle(Vec2(3, -0.7), 0.1, 0.4, 0.3)),),
        impedance=ImpedanceParams(m=2.5, d=10.0, k=16.0),
        apf=ApfParams(k_att=1.5, k_rep=0.7, leader_speed=0.25, goal_threshold=0.05),
        topology=TopologyParams(k_impF=0.8, hysteresis=0.2),
        dt=0.02,
        max_steps=123,
    )
    assert load_scenario(serialize_scenario(spec)) == spec


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
non_negative = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


@given(
    sx=finite, sy=finite, gx=finite, gy=finite,
    impedance=st.builds(ImpedanceParams, m=positive, d=positive, k=positive),
    apf=st.builds(ApfParams, k_att=positive, k_rep=positive,
                  leader_speed=positive, goal_threshold=positive),
    topology=st.builds(TopologyParams, k_impF=non_negative, hysteresis=non_negative),
    dt=st.floats(min_value=1e-4, max_value=0.5),
    max_steps=st.integers(min_value=1, max_value=10_000),
)
def test_serialize_round_trip_property(sx, sy, gx, gy, impedance, apf, topology,
                                       dt, max_steps):
    spec = ScenarioSpec(
        start=Vec2(sx, sy),
        goal=Vec2(gx, gy),
        impedance=impedance,
        apf=apf,
        topology=topology,
        dt=dt,
        max_steps=max_steps,
    )
    validate_spec(spec)
    assert load_scenario(serialize_scenario(spec)) == spec


@given(radius=positive, pad_imp=positive, pad_apf=st.floats(min_value=0.0, max_value=10.0))
def test_validate_accepts_ordered_radii(radius, pad_imp, pad_apf):
    ob = Obstacle(Vec2(1.0, 1.0), radius, radius + pad_imp + pad_apf, radius + pad_imp)
    validate_spec(straight_spec(obstacles=(ob,)))


MINIMAL = '{"start": [0, 0], "goal": [1, 0]%s}'
POST = '{"center": [1, 0.5], "radius": 0.1, "r_apf": 0.4, "r_imp": 0.3}'


@pytest.mark.parametrize(
    "extra, message",
    [
        (', "dt": %s' % BIG_INT, "dt must be finite"),
        (', "obstacles": [{"center": [1, %s], "radius": 0.1, "r_apf": 0.4, "r_imp": 0.3}]'
         % BIG_INT, r"obstacles\[0\]\.center\[1\] must be finite"),
        (', "apf": {"k_rep": -%s}' % BIG_INT, "apf.k_rep must be finite"),
        (', "dt": 1%s' % ("0" * 5000), "invalid JSON"),
    ],
    ids=["dt", "obstacle_center", "apf_block", "over_digit_limit"],
)
def test_load_rejects_numbers_beyond_float_range(extra, message):
    with pytest.raises(ScenarioParseError, match=message):
        load_scenario(MINIMAL % extra)


def test_load_rejects_deeply_nested_json():
    with pytest.raises(ScenarioParseError, match="invalid JSON"):
        load_scenario("[" * 100_000)


@pytest.mark.parametrize(
    "start, key",
    [("[" * 990 + "]" * 990, "start must be"), ("[%s, 0]" % BIG_INT, r"start\[0\] must be")],
    ids=["nested_lists", "long_integer"],
)
def test_load_errors_quote_a_bounded_value(start, key):
    # json decodes 990 nested lists only with more headroom than pytest's stack leaves.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)
    try:
        with pytest.raises(ScenarioParseError, match=key) as err:
            load_scenario('{"start": %s, "goal": [1, 0]}' % start)
    finally:
        sys.setrecursionlimit(limit)
    assert len(str(err.value)) < 200


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"goal": [1, 0]}', "missing required key 'start'"),
        ("[1, 2]", "top level must be an object"),
        (MINIMAL % ', "obstacles": [%s, {"center": [1, 0], "radius": 0.1}]' % POST,
         r"missing required key 'obstacles\[1\]\.r_apf'"),
        (MINIMAL % ', "obstacles": [%s]' % POST.replace("}", ', "height": 2}'),
         r"unknown obstacles\[0\] keys: \['height'\]"),
        (MINIMAL % ', "obstacles": [%s, %s, %s, {"center": ["a", 0]}]' % (POST, POST, POST),
         r"obstacles\[3\]\.center\[0\] must be a number"),
        (MINIMAL % ', "obstacles": {}', "obstacles must be an array"),
        (MINIMAL % ', "gates": [{"pole_a": %s}]' % POST, r"missing required key 'gates\[0\]\.pole_b'"),
        (MINIMAL % ', "gates": [{"pole_a": %s, "pole_b": [1, 2]}]' % POST,
         r"gates\[0\]\.pole_b must be an object"),
        (MINIMAL % ', "formation_offsets": [[1, 1], [1, 2, 3]]',
         r"formation_offsets\[1\] must be a \[x, y\] pair"),
        (MINIMAL % ', "impedance": [1]', "impedance must be an object"),
        (MINIMAL % ', "topology": {"k_impF": "0.5"}', "topology.k_impF must be a number"),
        (MINIMAL % ', "topology": {"k_impF": 0.5, "velocity_gain": 0.0}',
         r"^unknown topology keys: \['velocity_gain'\]$"),
        (MINIMAL % ', "max_steps": 10.0', "max_steps must be an integer"),
    ],
    ids=["missing_top", "top_not_object", "missing_obstacle_key", "unknown_obstacle_key",
         "obstacle_center", "obstacles_not_array", "missing_pole", "pole_not_object",
         "offset_not_pair", "block_not_object", "block_not_number", "unknown_topology_key",
         "max_steps_not_int"],
)
def test_load_errors_name_the_offending_key(text, message):
    with pytest.raises(ScenarioParseError, match=message):
        load_scenario(text)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_raises_only_scenario_error(data):
    # Any JSON at any key of a valid document: a spec or a ScenarioError.
    text = json.dumps(plant_json(data, full_scenario_doc()))
    try:
        load_scenario(text)
    except ScenarioError:
        pass


def test_full_scenario_doc_loads():
    # The property above starts from a document that loads as it is.
    spec = load_scenario(json.dumps(full_scenario_doc()))
    assert len(spec.obstacles) == 1 and len(spec.gates) == 1
