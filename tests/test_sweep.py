import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from swarmpath import world
from swarmpath.sweep import (
    SweepSpec,
    load_sweep,
    read_sweep,
    render_sweep_csv,
    render_sweep_json,
    run_sweep,
    sweep_point,
)
from swarmpath.world import (
    ScenarioError,
    ScenarioParseError,
    ScenarioSpec,
    ScenarioValidationError,
    Vec2,
    serialize_scenario,
)
from conftest import BIG_INT, SCENARIO_DIR, full_scenario_doc, plant_json, straight_spec


def inline_sweep(parameter="k", values=(20.88, 29.0)) -> str:
    return json.dumps({
        "parameter": parameter,
        "values": list(values),
        "scenario": json.loads(serialize_scenario(straight_spec(goal=Vec2(1.0, 0.0)))),
    })


def test_load_sweep_inline_scenario():
    sweep = load_sweep(inline_sweep())
    assert sweep.parameter == "k"
    assert sweep.values == (20.88, 29.0)
    assert sweep.scenario.goal == Vec2(1.0, 0.0)
    doc = json.loads(inline_sweep())
    del doc["scenario"]["start"]
    with pytest.raises(ScenarioParseError, match=r"missing required key 'scenario\.start'"):
        load_sweep(json.dumps(doc))


def test_load_sweep_parses_an_inline_scenario_once(monkeypatch):
    text, calls, loads = inline_sweep(), [], world.json.loads
    monkeypatch.setattr(world.json, "loads", lambda s: calls.append(s) or loads(s))
    load_sweep(text)
    assert len(calls) == 1


def test_load_sweep_rejects_unknown_parameter():
    with pytest.raises(ScenarioParseError, match=r"one of \('m', 'd', 'k'\), got 'mass'"):
        load_sweep(inline_sweep(parameter="mass"))


def test_load_sweep_rejects_extra_keys():
    doc = json.loads(inline_sweep())
    doc["seed"] = 7
    with pytest.raises(ScenarioParseError):
        load_sweep(json.dumps(doc))


def test_load_sweep_scenario_path_is_relative_to_sweep_file():
    sweep = read_sweep(SCENARIO_DIR / "sweep_d.json")
    assert sweep.parameter == "d"
    assert sweep.scenario.goal == Vec2(7.0, 0.0)


def test_load_sweep_rejects_non_finite_value():
    text = inline_sweep(values=(20.88, 29.0)).replace("29.0", "1e400")
    with pytest.raises(ScenarioParseError, match="finite"):
        load_sweep(text)


def test_load_sweep_validates_every_point_before_running():
    with pytest.raises(ScenarioValidationError, match="d=-1.0"):
        load_sweep(inline_sweep(parameter="d", values=(12.6, -1.0)))


def test_sweep_spec_built_in_code_is_validated():
    # Built without load_sweep, a bad point still fails before any run.
    with pytest.raises(ScenarioValidationError, match="d=-1.0"):
        run_sweep(SweepSpec("d", (-1.0,), ScenarioSpec(start=Vec2(0, 0), goal=Vec2(1, 0))))
    with pytest.raises(ScenarioValidationError, match="finite"):
        SweepSpec("k", (math.inf,), straight_spec())
    with pytest.raises(ScenarioValidationError, match="parameter"):
        SweepSpec("mass", (1.0,), straight_spec())
    with pytest.raises(ScenarioValidationError, match="values"):
        SweepSpec("d", (), straight_spec())


def test_sweep_point_replaces_one_impedance_field():
    spec = straight_spec()
    out = sweep_point(spec, "m", 3.0)
    assert out.impedance.m == 3.0
    assert out.impedance.d == spec.impedance.d
    assert out.impedance.k == spec.impedance.k
    assert sweep_point(spec, "d", 9.0).impedance.d == 9.0


def test_run_sweep_flags_critical_damping():
    sweep = load_sweep(inline_sweep(parameter="d", values=(11.0, 12.6, 14.0)))
    result = run_sweep(sweep)
    flags = [run.critical for run in result.runs]
    assert flags == [False, True, False]
    assert "12.597" in result.runs[1].note
    assert all(run.outcome == "completed" for run in result.runs)


def test_sweep_json_and_csv_shapes():
    result = run_sweep(load_sweep(inline_sweep()))
    doc = json.loads(render_sweep_json(result))
    assert doc["parameter"] == "k"
    assert len(doc["runs"]) == 2
    assert doc["runs"][0]["value"] == 20.88

    csv_text = render_sweep_csv(result)
    lines = csv_text.strip().split("\n")
    assert lines[0].split(",") == ["drone", "k=20.88", "k=29"]
    assert lines[1].startswith("drone1,")
    assert lines[-1].startswith("outcome,")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_sweep_raises_only_scenario_error(data):
    # Any JSON at any key of a valid sweep document, its inline scenario included.
    doc = {"parameter": "d", "values": [12.6, 14.0], "scenario": full_scenario_doc()}
    try:
        load_sweep(json.dumps(plant_json(data, doc)), base_dir=SCENARIO_DIR)
    except ScenarioError:
        pass




def test_load_sweep_rejects_integer_beyond_float_range():
    text = inline_sweep(values=(20.88, 29.0)).replace("29.0", BIG_INT)
    with pytest.raises(ScenarioParseError, match=r"values\[1\] must be finite"):
        load_sweep(text)


def test_load_sweep_rejects_deeply_nested_json():
    with pytest.raises(ScenarioParseError, match="invalid JSON"):
        load_sweep('{"parameter": "d", "values": ' + "[" * 100_000)


def test_load_sweep_rejects_nul_in_scenario_path():
    text = json.dumps({"parameter": "d", "values": [12.6], "scenario": "case1\u0000gate.json"})
    with pytest.raises(ScenarioParseError, match="cannot read scenario"):
        load_sweep(text, base_dir=SCENARIO_DIR)
