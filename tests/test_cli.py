import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmpath import cli, metrics, simulator, sweep, traceio, world
from swarmpath.cli import main
from swarmpath.world import Obstacle, Vec2, serialize_scenario
from conftest import BIG_INT, SCENARIO_DIR, straight_spec


@pytest.fixture()
def short_scenario(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(serialize_scenario(straight_spec(goal=Vec2(1.0, 0.0))))
    return path


@pytest.fixture()
def unreachable_scenario(tmp_path):
    path = tmp_path / "far.json"
    spec = straight_spec(goal=Vec2(100.0, 0.0), max_steps=25)
    path.write_text(serialize_scenario(spec))
    return path


def test_run_writes_outputs(short_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(short_scenario), "--output-dir", str(out)])
    assert code == 0
    assert (out / "trace.csv").is_file()
    assert (out / "trace.svg").is_file()
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["outcome"] == "completed"
    assert "completed" in capsys.readouterr().out


def test_each_spec_is_validated_once(short_scenario, tmp_path, monkeypatch):
    validate, labels = world.validate_spec, []

    def counted(*args):
        labels.append(args[1:])
        validate(*args)

    for module in (world, sweep, cli):
        monkeypatch.setattr(module, "validate_spec", counted)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(
        {"parameter": "d", "values": [12.6, 14.0], "scenario": short_scenario.name}))
    sweep.read_sweep(sweep_path)
    assert labels == [("scenario",), ("values[0]",), ("values[1]",)]
    labels.clear()
    assert main(["compare", str(short_scenario), "-o", str(tmp_path / "out")]) == 0
    assert labels == [()]


def test_run_incomplete_exits_2(unreachable_scenario, tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(unreachable_scenario), "--output-dir", str(out)])
    assert code == 2
    assert (out / "metrics.json").is_file()  # outputs still written


def test_run_baseline_controller(short_scenario, tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(short_scenario), "--controller", "apf",
                 "--output-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["controller"] == "conventional-apf"


def test_run_missing_file_exits_1(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json"), "--output-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"start": [0, 0]}')
    code = main(["run", str(bad), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_output_dir_env_var(short_scenario, tmp_path, monkeypatch):
    out = tmp_path / "from-env"
    monkeypatch.setenv("SWARMPATH_OUT", str(out))
    assert main(["run", str(short_scenario)]) == 0
    assert (out / "trace.csv").is_file()


def test_dt_and_max_steps_overrides(short_scenario, tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(short_scenario), "--dt", "0.02",
                 "--max-steps", "30", "--output-dir", str(out)])
    assert code == 2  # 30 coarse steps cannot cover the distance
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["outcome"] == "max_steps"
    assert doc["frames"] == 31


def test_override_validation_failure_exits_1(short_scenario, tmp_path, capsys):
    code = main(["run", str(short_scenario), "--dt", "-1",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_dt_override_exits_1(short_scenario, tmp_path, capsys):
    code = main(["run", str(short_scenario), "--dt", "inf",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("gap", [0.0, 1e-310])
def test_run_singular_start_exits_1(gap, tmp_path, capsys):
    # The leader starts on an obstacle center, or so near it that the radial
    # scale of the repulsion overflows: one error line, no traceback.
    post = Obstacle(Vec2(0.0, gap), 0.1, 0.5, 0.3)
    path = tmp_path / "singular.json"
    path.write_text(serialize_scenario(straight_spec(obstacles=(post,))))
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1: ") and err.count("\n") == 1
    assert "obstacle center" in err


@pytest.mark.parametrize("command", ["run", "compare", "run --controller apf"])
def test_overflowing_scenario_exits_1(command, tmp_path, capsys):
    # Start and goal load as finite, but goal - start overflows to inf, so the
    # first step leaves a non-finite state: one error line, no traceback.  The
    # swarm's leader track catches it first; the baseline has no leader, so
    # there the run's own finiteness check does.
    path = tmp_path / "overflow.json"
    path.write_text('{"start": [-1e308, 0], "goal": [1e308, 0]}')
    code = main([*command.split(), str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: step 1: the state overflowed to a non-finite value\n"


@pytest.mark.parametrize("command", ["run", "compare", "run --controller apf"])
def test_a_slot_that_is_not_finite_exits_1(command, tmp_path, capsys):
    # Start and goal are finite, but drone 1's start slot start + offset is
    # not: the loader rejects it before any frame is recorded.
    path = tmp_path / "slot.json"
    path.write_text('{"start": [1.7e308, 0], "goal": [1.7e308, 1], '
                    '"formation_offsets": [[1e308, 0]]}')
    code = main([*command.split(), str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: formation_offsets[0]: the start slot start + offset = (inf, 0.0) "
        "is not finite\n")
    assert not (tmp_path / "out").exists()


FAR = {"center": [1.7e308, 0], "radius": 0.1, "r_apf": 1e308, "r_imp": 0.3}
NEAR = {"center": [0, 5], "radius": 0.1, "r_apf": 0.5, "r_imp": 0.3}
OVERFLOWING_GRIDS = {
    # The force grid's reach box of a post runs past the largest double.
    "post": {"obstacles": [FAR]},
    "gate_pole": {"gates": [{"pole_a": FAR, "pole_b": NEAR}]},
    # A small r_apf, but the link grid reaches as far as the largest r_imp.
    "link_reach": {"obstacles": [dict(FAR, r_apf=0.5),
                                 dict(NEAR, r_apf=1e308, r_imp=1e308)]},
    # Finite box edges, but their cell numbers overflow a 0.4 m cell.
    "cell_number": {"obstacles": [dict(FAR, center=[1e308, 0], r_apf=0.3, r_imp=0.2)]},
}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("case", list(OVERFLOWING_GRIDS))
def test_obstacle_grid_overflow_exits_1(case, command, tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"start": [0, 0], "goal": [1, 0], **OVERFLOWING_GRIDS[case]}))
    code = main([command, str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows the obstacle grid" in err


def test_far_obstacle_clearance_is_finite(tmp_path):
    # Squaring the 1e300 m offset overflows; the clearance must not read as
    # "no obstacles" (null) nor warn.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"start": [0, 0], "goal": [1, 0], "obstacles": [
        {"center": [1e300, 0], "radius": 0.1, "r_apf": 0.5, "r_imp": 0.3}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert caught == []
    clearance = json.loads((tmp_path / "out" / "metrics.json").read_text())[
        "min_obstacle_clearance_m"]
    assert math.isfinite(clearance) and clearance == pytest.approx(1e300, rel=1e-5)


def test_far_pair_distance_is_finite(tmp_path):
    # Squaring the 2e200 m gap between the drones overflows; metrics.json
    # must hold the distance (valid JSON has no Infinity), without a warning.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"start": [0, 0], "goal": [1, 0],
                                "formation_offsets": [[1e200, 0], [-1e200, 0]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert caught == []
    text = (tmp_path / "out" / "metrics.json").read_text()
    assert '"max_pairwise_distance_m": 2e+200,' in text
    assert json.loads(text)["max_pairwise_distance_m"] == 2e200


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_overflowing_path_lengths_are_written_as_strict_json(tmp_path):
    # Each step is about 1e158 m, whose square overflows; metrics.json and
    # comparison.json must hold the lengths as strict JSON, without a warning.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"start": [0, 0], "goal": [1e161, 0],
                                "apf": {"leader_speed": 1e160}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        codes = [main([command, str(path), "--output-dir", str(tmp_path / command)])
                 for command in ("run", "compare")]
    assert codes == [2, 2]  # max_steps: the goal is 1e161 m away
    assert caught == []
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text(),
                         parse_constant=reject_constant)
    comparison = json.loads((tmp_path / "compare" / "comparison.json").read_text(),
                            parse_constant=reject_constant)
    lengths = [metrics["leader_path_length_m"], *metrics["drone_path_lengths_m"].values(),
               *(d[key] for d in comparison["drones"]
                 for key in ("swarmpath_path_m", "conventional_apf_path_m"))]
    assert len(lengths) == 13
    assert all(1e161 < v < math.inf for v in lengths)


POST = {"center": [1.0, 0.3], "radius": 0.1, "r_apf": 0.6, "r_imp": 0.4}
# k_impF flings the swarm about 5e303 m off its track.
FLUNG = {"start": [0, 0], "goal": [2, 0], "obstacles": [POST],
         "topology": {"k_impF": 1e306}, "max_steps": 600}
# The leader oscillates 2e306 m a step across its goal, so every path length
# sums past float range.
OSCILLATING = {"start": [0, 0], "goal": [3e306, 0], "apf": {"leader_speed": 2e306},
               "dt": 1.0, "max_steps": 200, "formation_offsets": [[0, 0.4], [0, -0.4]]}
# The two drones straddle float range: a pair's separation, a frame's APE
# error and the plot's spans all pass 1.8e308 m.
STRADDLING = {"start": [0, 0], "goal": [-1.0, 1.0],
              "obstacles": [{"center": [-0.46105093147490095, -0.38071145237058546],
                             "radius": 0.1, "r_apf": 0.6, "r_imp": 0.3}],
              "formation_offsets": [[0.0, 0.0], [-0.14594838682994582, 0.1708410798839004]],
              "impedance": {"k": 1e4}, "apf": {"leader_speed": 1.7e308},
              "topology": {"k_impF": 1e306}, "dt": 1.0, "max_steps": 3}
# The goal is 1e306 m up and 0 m across: the plot is far taller than wide.
TALL = {"start": [0, 0], "goal": [0, 1e306], "apf": {"leader_speed": 1e305}, "dt": 1.0,
        "max_steps": 20}
# Start and goal coincide 1e300 m out, where WORLD_PAD is absorbed: the plot
# has neither width nor height.
ZERO_AREA = {"start": [1e300, 1e300], "goal": [1e300, 1e300], "max_steps": 50}


def test_a_flung_swarm_compares_as_strict_json(tmp_path, capsys):
    path = tmp_path / "flung.json"
    path.write_text(json.dumps(FLUNG))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2  # the swarm runs out of steps; the baseline completes
    comparison = json.loads((tmp_path / "out" / "comparison.json").read_text(),
                            parse_constant=reject_constant)
    assert all(0.0 < d["ape_percent"] < math.inf for d in comparison["drones"])
    assert capsys.readouterr().out.splitlines()[1] == "max pairwise distance ratio: 3.36535e+303"


@st.composite
def extreme_docs(draw):
    """Valid FLUNG-like documents with magnitudes from 1e-2 to 1e307 on
    k_impF, leader_speed, dt, the goal (far along x or along y, and sometimes
    the start too) and one offset."""
    big = st.none() | st.floats(-2.0, 307.0).map(lambda e: 10.0 ** e)
    sign = st.sampled_from((1.0, -1.0))
    doc = {"start": [0, 0], "goal": [2, 0], "obstacles": [POST], "max_steps": 600,
           "topology": {}, "apf": {}}
    for block, key in (("topology", "k_impF"), ("apf", "leader_speed")):
        value = draw(big)
        if value is not None:
            doc[block][key] = value
    dt = draw(big)
    if dt is not None:
        doc["dt"] = dt
    goal = draw(big)
    if goal is not None:
        doc["goal"] = [draw(sign) * goal, draw(st.floats(-1.0, 1.0))]
        if draw(st.booleans()):
            doc["goal"].reverse()
    if draw(st.booleans()):
        doc["start"] = list(doc["goal"])
    offset = draw(big)
    if offset is not None:
        offsets = [[0.4, 0.4], [0.4, -0.4], [-0.4, 0.4], [-0.4, -0.4]]
        offsets[draw(st.integers(0, 3))] = [draw(sign) * offset, draw(sign) * offset]
        doc["formation_offsets"] = offsets
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=extreme_docs())
@example(doc=FLUNG)
@example(doc=OSCILLATING)
@example(doc=STRADDLING)
@example(doc=TALL)
@example(doc=ZERO_AREA)
def test_outputs_are_strict_at_any_magnitude(doc):
    # Every JSON parses without Infinity or NaN, no SVG prints nan or inf,
    # nothing warns, and a run that fails says at which step.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path, sweep_path = Path(tmp) / "spec.json", Path(tmp) / "sweep.json"
        path.write_text(json.dumps(doc))
        sweep_path.write_text(json.dumps({"parameter": "k", "values": [20.88],
                                          "scenario": "spec.json"}))
        for command, source in (("run", path), ("compare", path), ("sweep", sweep_path)):
            out, err = Path(tmp) / command, io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, str(source), "--output-dir", str(out)])
            if code == 1:
                assert re.fullmatch(r"error: step \d+: [^\n]*\n", err.getvalue())
                continue
            assert code in (0, 2)
            for json_file in out.glob("*.json"):
                json.loads(json_file.read_text(), parse_constant=reject_constant)
            for svg in out.glob("*.svg"):
                text = svg.read_text().lower()
                assert "nan" not in text and "inf" not in text


def test_offsets_whose_spread_overflows_are_rejected(tmp_path, capsys):
    # The two drones are 2e308 m apart, beyond float range.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"start": [0, 0], "goal": [1, 0],
                                "formation_offsets": [[1e308, 0], [-1e308, 0]]}))
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "formation_offsets: the offsets' spread inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_writes_reports(short_scenario, tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", str(short_scenario), "--output-dir", str(out)])
    assert code == 0
    for name in ("trace_swarmpath.csv", "trace_apf.csv", "comparison.json", "compare.svg"):
        assert (out / name).is_file()
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["swarmpath"]["outcome"] == "completed"


def test_compare_returns_the_comparison_document(short_scenario, tmp_path):
    # metrics.compare's dict is comparison.json's document at full precision:
    # the same keys in the same order at every depth, the same values once
    # rounded.
    def key_tree(value):
        if isinstance(value, dict):
            return [(key, key_tree(item)) for key, item in value.items()]
        return [key_tree(item) for item in value] if isinstance(value, list) else None

    out = tmp_path / "cmp"
    assert main(["compare", str(short_scenario), "--output-dir", str(out)]) == 0
    written = json.loads((out / "comparison.json").read_text())
    spec = world.read_scenario(short_scenario)
    doc = metrics.compare(simulator.run(spec, simulator.SWARMPATH),
                          simulator.run(spec, simulator.CONVENTIONAL_APF))
    assert list(doc) == list(written)
    assert key_tree(doc) == key_tree(written)
    assert json.loads(traceio.render_comparison_json(doc)) == written


def test_compare_incomplete_exits_2(unreachable_scenario, tmp_path):
    code = main(["compare", str(unreachable_scenario),
                 "--output-dir", str(tmp_path / "cmp")])
    assert code == 2


def test_sweep_writes_tables(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(serialize_scenario(straight_spec(goal=Vec2(1.0, 0.0))))
    sweep = tmp_path / "sw.json"
    sweep.write_text(json.dumps({
        "parameter": "d",
        "values": [12.0, 12.6],
        "scenario": "s.json",
    }))
    out = tmp_path / "out"
    code = main(["sweep", str(sweep), "--output-dir", str(out)])
    assert code == 0
    assert (out / "sweep.json").is_file()
    assert (out / "sweep.csv").is_file()
    doc = json.loads((out / "sweep.json").read_text())
    assert [r["value"] for r in doc["runs"]] == [12.0, 12.6]


def test_every_cli_output_is_written_with_unix_newlines(short_scenario, tmp_path, monkeypatch):
    # Each file that run, compare and sweep write goes through cli._write,
    # which pins LF line ends, so the bytes are the same on every platform.
    write, written = cli._write, []

    def recorded(path, text):
        written.append(path)
        write(path, text)

    monkeypatch.setattr(cli, "_write", recorded)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"parameter": "d", "values": [12.6],
                                      "scenario": short_scenario.name}))
    for command, source in (("run", short_scenario), ("compare", short_scenario),
                            ("sweep", sweep_path)):
        out = tmp_path / command
        written.clear()
        assert main([command, str(source), "--output-dir", str(out)]) == 0
        assert sorted(written) == sorted(out.iterdir())
        assert all(b"\r" not in path.read_bytes() for path in written)
    trace = simulator.run(world.read_scenario(short_scenario))
    assert (tmp_path / "run" / "trace.csv").read_bytes().decode("utf-8") == \
        traceio.render_trace_csv(trace)


def test_sweep_labels_distinct_values_apart(tmp_path, capsys):
    # :g prints both 12.6 and 12.6000001 as 12.6; a label that does not read
    # back as its value is printed as its repr.
    scenario = tmp_path / "s.json"
    scenario.write_text(serialize_scenario(straight_spec(goal=Vec2(1.0, 0.0))))
    sweep = tmp_path / "sw.json"
    sweep.write_text('{"parameter": "d", "values": [12, 12.6, 12.6000001], "scenario": "s.json"}')
    out = tmp_path / "out"
    assert main(["sweep", str(sweep), "--output-dir", str(out)]) == 0
    header = (out / "sweep.csv").read_text().split("\n")[0]
    assert header == "drone,d=12,d=12.6,d=12.6000001"
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["d=12", "d=12.6", "d=12.6000001"]


@pytest.mark.parametrize("value, message", [("-1.0", "d=-1.0"),
                                            ("1e400", "values[1] must be finite")])
def test_sweep_bad_value_exits_1_before_any_run(value, message, tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(serialize_scenario(straight_spec(goal=Vec2(1.0, 0.0))))
    sweep = tmp_path / "sw.json"
    sweep.write_text('{"parameter": "d", "values": [12.6, %s], "scenario": "s.json"}' % value)
    out = tmp_path / "out"
    code = main(["sweep", str(sweep), "--output-dir", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_over_an_int_field_exits_1(tmp_path, capsys):
    sweep = tmp_path / "sw.json"
    sweep.write_text(json.dumps({"parameter": "max_steps", "values": [10.0],
                                 "scenario": str(SCENARIO_DIR / "case1_gate.json")}))
    out = tmp_path / "out"
    assert main(["sweep", str(sweep), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: parameter: 'max_steps' names no float field\n"
    assert captured.out == ""
    assert not out.exists()


def test_validate_reports_each_check(capsys):
    code = main(["validate"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        assert "max_error=" in line and "tolerance=" in line
    # Every check meets its tolerance, so validate signals success overall.
    assert all(line.endswith("PASS") for line in lines)
    assert code == 0


def test_shipped_scenarios_load_and_run(tmp_path):
    for name in ("case1_gate.json", "case2_forest.json"):
        out = tmp_path / name.replace(".json", "")
        code = main(["run", str(SCENARIO_DIR / name), "--max-steps", "40",
                     "--output-dir", str(out)])
        assert code == 2  # truncated on purpose; we only check wiring here
        assert (out / "trace.csv").is_file()


def test_unknown_subcommand_exits_2_via_argparse():
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


LOADER_ESCAPES = {
    # Each raises OverflowError, RecursionError, ValueError or UnicodeDecodeError
    # inside the loaders, which must surface as ScenarioError, not a traceback.
    "scenario_big_int": ("run", '{"start": [0, 0], "goal": [1, 0], "dt": %s}' % BIG_INT),
    "scenario_deep_nesting": ("run", "[" * 100_000),
    "scenario_not_utf8": ("run", b"\xff\xfe{}"),
    "sweep_big_int": ("sweep", '{"parameter": "d", "values": [%s], "scenario": "s.json"}' % BIG_INT),
    "sweep_deep_nesting": ("sweep", '{"parameter": "d", "values": ' + "[" * 100_000),
    "sweep_nul_in_path": ("sweep", json.dumps({"parameter": "d", "values": [12.6],
                                               "scenario": "s\u0000.json"})),
}


@pytest.mark.parametrize("case", list(LOADER_ESCAPES))
def test_loader_failure_exits_1_with_one_error_line(case, tmp_path, capsys):
    command, content = LOADER_ESCAPES[case]
    (tmp_path / "s.json").write_text(serialize_scenario(straight_spec()))
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code = main([command, str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
