import dataclasses
import functools
import json
import math
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from swarmpath import metrics, sweep as sweep_module, topology, world
from swarmpath.simulator import run
from swarmpath.sweep import (
    SweepSpec,
    load_sweep,
    read_sweep,
    render_sweep_csv,
    render_sweep_json,
    run_sweep,
    sweep_point,
)
from swarmpath.traceio import sig6
from swarmpath.world import (
    ScenarioError,
    ScenarioParseError,
    ScenarioSpec,
    ScenarioValidationError,
    Vec2,
    serialize_scenario,
)
from conftest import (BIG_INT, SCENARIO_DIR, full_scenario_doc, plant_json, straight_spec,
                      sweep_traces)


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
    # An unknown key, an int field, an array and an [x, y] pair are each one
    # validation error that names the parameter.
    for parameter in ("mass", "max_steps", "start", "obstacles", "apf.nope"):
        with pytest.raises(ScenarioValidationError) as caught:
            load_sweep(inline_sweep(parameter=parameter))
        assert caught.type is ScenarioValidationError
        assert str(caught.value) == f"parameter: {parameter!r} names no float field"


def test_load_sweep_rejects_a_parameter_that_is_not_a_string():
    with pytest.raises(ScenarioParseError, match=r"^parameter must be a string, got \['d'\]$"):
        load_sweep(inline_sweep(parameter=["d"]))


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


def test_sweep_validation_errors_name_their_key():
    doc = json.loads(inline_sweep())
    doc["scenario"]["dt"] = 0
    with pytest.raises(ScenarioValidationError, match=r"^scenario: dt=0\.0 "):
        load_sweep(json.dumps(doc))
    with pytest.raises(ScenarioValidationError, match=r"^values\[1\]\.impedance: d=-2\.0 "):
        load_sweep(inline_sweep(parameter="d", values=(12.6, -2.0)))
    doc = json.loads(inline_sweep())
    doc["scenario"].update(start=[1.7e308, 0], goal=[1.7e308, 1], formation_offsets=[[1e308, 0]])
    with pytest.raises(ScenarioValidationError,
                       match=r"^scenario\.formation_offsets\[0\]: the start slot "):
        load_sweep(json.dumps(doc))


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


# Every key path that sweep_point accepts: dt, each float field of the
# parameter objects, and the impedance aliases.
SWEEPABLE_PATHS = {"dt", "m", "d", "k", "impedance.m", "impedance.d", "impedance.k",
                   "apf.k_att", "apf.k_rep", "apf.leader_speed", "apf.goal_threshold",
                   "topology.k_impF", "topology.hysteresis"}


def key_paths(cls, prefix=""):
    """Every key path through cls's fields, into Vec2s, tuple items and objects alike."""
    for f in dataclasses.fields(cls):
        item = typing.get_args(f.type)[0] if typing.get_origin(f.type) is tuple else f.type
        yield prefix + f.name
        if dataclasses.is_dataclass(item):
            yield from key_paths(item, f"{prefix}{f.name}.")


def test_sweep_point_accepts_exactly_the_float_parameter_paths():
    spec = world.read_scenario(SCENARIO_DIR / "case1_gate.json")
    candidates = {*key_paths(ScenarioSpec), *SWEEPABLE_PATHS, "mass", "impedance.m.x",
                  "apf.k_rep.", "dt.", "topology..k_impF", "impedance.obstacle_index"}
    assert {"start.x", "obstacles.center.y", "gates.pole_a.radius", "max_steps"} <= candidates
    accepted = set()
    for path in sorted(candidates):
        try:
            out = sweep_point(spec, path, 0.75)
        except ScenarioValidationError as exc:
            assert str(exc) == f"parameter: {path!r} names no float field"
            continue
        accepted.add(path)
        keys = sweep_module.ALIASES.get(path, path).split(".")
        assert functools.reduce(getattr, keys, out) == 0.75
        # Only that field changed.
        assert sweep_point(out, path, functools.reduce(getattr, keys, spec)) == spec
    assert accepted == SWEEPABLE_PATHS


def bits(column):
    return None if column is None else (column.dtype, column.shape, column.tobytes())


@pytest.mark.parametrize("parameter, values, tracks", [
    ("topology.k_impF", (0.3, 0.5, 0.8), 1),
    ("apf.k_rep", (0.2, 0.3, 0.45), 3),
    ("dt", (0.008, 0.01, 0.0125), 3),
])
def test_sweep_axes_match_their_standalone_runs(parameter, values, tracks, monkeypatch):
    # No leader input reads topology, so its points share the base's track;
    # apf and dt are leader inputs, so each of their points builds its own,
    # and a point with the base's inputs reads the base's obstacle index.
    base = world.read_scenario(SCENARIO_DIR / "case1_gate.json")
    built, read = [], []
    init = topology.LeaderTrack.__init__

    def counted(track, *args):
        built.append(track)
        init(track, *args)

    def recorded(spec, controller, track):
        read.append(track)
        return run(spec, controller, track)

    monkeypatch.setattr(topology.LeaderTrack, "__init__", counted)
    monkeypatch.setattr(sweep_module, "run", recorded)
    result, traces = sweep_traces(SweepSpec(parameter, values, base), monkeypatch)
    assert len(built) == tracks
    assert {id(t) for t in read} == {id(t) for t in built}
    assert len(traces) == len(read) == len(result.runs) == len(values)
    base_inputs = topology.leader_inputs(base)
    for value, point, trace, track in zip(values, result.runs, traces, read):
        spec = sweep_point(base, parameter, value)
        assert (track.index is base.obstacle_index) == (topology.leader_inputs(spec) == base_inputs)
        alone = run(spec)
        for column in ("t", "positions", "leader", "modes"):
            assert bits(getattr(trace, column)) == bits(getattr(alone, column))
        assert point["outcome"] == trace.outcome == alone.outcome


def test_run_sweep_flags_critical_damping():
    sweep = load_sweep(inline_sweep(parameter="d", values=(11.0, 12.6, 14.0)))
    result = run_sweep(sweep)
    flags = [run["critical"] for run in result.runs]
    assert flags == [False, True, False]
    assert "12.597" in result.runs[1]["note"]
    assert all(run["outcome"] == "completed" for run in result.runs)


def test_sweep_steps_the_leader_once(monkeypatch):
    # m, d and k never reach the leader: a whole sweep grows exactly the
    # leader rows of one run, and each point still equals its own run.
    grown = [0]
    descend = topology.descend

    def counted(xy, *args):
        before = len(xy)
        try:
            return descend(xy, *args)
        finally:
            grown[0] += (len(xy) - before) // 2

    monkeypatch.setattr(topology, "descend", counted)
    sweep = read_sweep(SCENARIO_DIR / "sweep_d.json")
    assert len(sweep.values) == 4
    run(sweep.scenario)
    one_run = grown[0]
    grown[0] = 0
    result, traces = sweep_traces(sweep, monkeypatch)
    assert one_run > 0
    assert grown[0] == one_run
    assert len(traces) == len(result.runs) == 4
    for value, trace in zip(sweep.values, traces):
        alone = run(sweep_point(sweep.scenario, sweep.parameter, value))
        for column in ("t", "positions", "leader", "modes"):
            assert np.array_equal(getattr(trace, column), getattr(alone, column))
        assert trace.outcome == alone.outcome


def test_sweep_points_share_one_obstacle_index(monkeypatch):
    # m, d and k leave the obstacles alone: a whole sweep builds one index,
    # the base scenario's, which the one leader track carries to every point.
    built, tracks = [0], []
    init = world.ObstacleIndex.__init__

    def counted(index, obstacles):
        built[0] += 1
        init(index, obstacles)

    def recorded(spec, controller, track):
        tracks.append(track)
        return run(spec, controller, track)

    sweep = read_sweep(SCENARIO_DIR / "sweep_k.json")
    monkeypatch.setattr(world.ObstacleIndex, "__init__", counted)
    monkeypatch.setattr(sweep_module, "run", recorded)
    result, traces = sweep_traces(sweep, monkeypatch)
    assert built[0] == 1
    assert len(traces) == len(tracks) == len(result.runs) == len(sweep.values) > 1
    assert all(t is tracks[0] for t in tracks)
    assert tracks[0].index is sweep.scenario.obstacle_index
    # A point's own index, built only when asked for, lists the same rows.
    assert all(t.spec.obstacle_index.rows == tracks[0].index.rows for t in traces)


@pytest.mark.parametrize("name", ["sweep_k.json", "sweep_d.json"])
def test_sweep_points_search_each_offsets_approach_once(name, monkeypatch):
    # m, d and k leave each follower's ride table alone: a sweep builds one
    # table per formation offset during the first point, searched from step
    # 0 up to where its ride stops, and the later points build none.
    builds, point = [], [0]
    ride_table = topology.LeaderTrack.ride_table

    def counted_ride_table(track, offset):
        built = offset not in track.ride_tables
        stop = ride_table(track, offset)
        if built:
            builds.append((point[0], offset, stop, len(track.xy) // 2))
        return stop

    def counted_run(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        finally:
            point[0] += 1

    sweep = read_sweep(SCENARIO_DIR / name)
    monkeypatch.setattr(topology.LeaderTrack, "ride_table", counted_ride_table)
    monkeypatch.setattr(sweep_module, "run", counted_run)
    result, traces = sweep_traces(sweep, monkeypatch)
    assert point[0] == len(traces) == len(result.runs) == len(sweep.values) > 1
    offsets = [o.as_tuple() for o in sweep.scenario.formation_offsets]
    assert [offset for _, offset, _, _ in builds] == offsets
    assert {p for p, _, _, _ in builds} == {0}
    for i, (_, _, stop, rows) in enumerate(builds):
        # The ride stops before the track's last row.
        assert stop < rows
        # The gate has one r_imp, so each ride stops on the drone's first
        # acquire, the same step at every point.
        for trace in traces:
            assert int(np.argmax(trace.modes[:, i] != topology.LEADER)) == stop


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


def test_a_sweep_point_is_its_sweep_json_entry(monkeypatch):
    result, traces = sweep_traces(load_sweep(inline_sweep()), monkeypatch)
    written = json.loads(render_sweep_json(result))["runs"]
    assert len(result.runs) == len(written) == len(traces) == 2
    for point, entry, trace in zip(result.runs, written, traces):
        assert list(point) == ["value", "outcome", "critical", "note", "drone_path_lengths_m"]
        lengths = point["drone_path_lengths_m"]
        assert entry == {**point, "drone_path_lengths_m": [sig6(v) for v in lengths]}
        # Unrounded: the file alone rounds.
        assert lengths == metrics.drone_path_lengths(trace)


@example(data=None, parameter="__class__")
@example(data=None, parameter="obstacle_index")
@example(data=None, parameter="impedance.__dict__")
@example(data=None, parameter="start.x")
@example(data=None, parameter="")
@example(data=None, parameter="apf.")
@example(data=None, parameter=".dt")
@settings(max_examples=300, deadline=None)
@given(data=st.data(), parameter=st.just("d"))
def test_load_sweep_raises_only_scenario_error(data, parameter):
    # Any JSON at any key of a valid sweep document, its inline scenario
    # included.  Each example plants nothing and names a parameter outside
    # the schema, which must fail.  No load builds an index or a track.
    doc = {"parameter": parameter, "values": [12.6, 14.0], "scenario": full_scenario_doc()}
    text = json.dumps(doc if data is None else plant_json(data, doc))
    built, raised = [], False
    with pytest.MonkeyPatch.context() as patch:
        for cls in (world.ObstacleIndex, topology.LeaderTrack):
            def counted(self, *args, init=cls.__init__):
                built.append(type(self))
                init(self, *args)

            patch.setattr(cls, "__init__", counted)
        try:
            load_sweep(text, base_dir=SCENARIO_DIR)
        except ScenarioError:
            raised = True
    assert built == []
    if data is None:
        assert raised




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
