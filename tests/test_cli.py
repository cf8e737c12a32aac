import json
import math
import warnings

import pytest

from swarmpath.cli import main
from swarmpath.world import Obstacle, Vec2, serialize_scenario
from conftest import SCENARIO_DIR, straight_spec


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_overflowing_scenario_exits_1(command, tmp_path, capsys):
    # Start and goal load as finite, but goal - start overflows to inf, so the
    # first step leaves a non-finite state: one error line, no traceback.
    path = tmp_path / "overflow.json"
    path.write_text('{"start": [-1e308, 0], "goal": [1e308, 0]}')
    code = main([command, str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1: ") and err.count("\n") == 1
    assert "finite" in err


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


def test_compare_writes_reports(short_scenario, tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", str(short_scenario), "--output-dir", str(out)])
    assert code == 0
    for name in ("trace_swarmpath.csv", "trace_apf.csv", "comparison.json", "compare.svg"):
        assert (out / name).is_file()
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["swarmpath"]["outcome"] == "completed"


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
    with pytest.raises(SystemExit):
        main(["frobnicate"])
