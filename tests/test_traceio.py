import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from swarmpath.metrics import compare, drone_path_lengths, path_length, report
from swarmpath.simulator import COMPLETED, CONVENTIONAL_APF, SWARMPATH, SimulationTrace, run
from swarmpath.traceio import (
    CSV_BLOCK,
    _render_report,
    mode_cell,
    render_comparison_json,
    render_metrics_json,
    render_trace_csv,
    sig6,
)
from swarmpath.world import Vec2
from conftest import one_pole_spec, straight_spec


def data_rows(text: str) -> list[list[str]]:
    """Cells of every data row of a trace CSV."""
    return [line.split(",") for line in text.rstrip("\n").split("\n")[1:]]


def assert_row_is_frame(cells: list[str], trace: SimulationTrace, n: int) -> None:
    """Every cell of one CSV row reads back as frame n's exact columns."""
    assert float(cells[0]) == trace.t[n]
    if trace.leader is not None:
        assert (float(cells[1]), float(cells[2])) == tuple(trace.leader[n])
    else:
        assert cells[1:3] == ["", ""]
    for d in range(trace.n_drones):
        x, y, mode = cells[3 + 3 * d: 6 + 3 * d]
        assert (float(x), float(y)) == tuple(trace.positions[n, d])
        assert mode == (mode_cell(trace.modes[n, d]) if trace.modes is not None else "")


def test_csv_header_and_shape():
    trace = run(straight_spec(goal=Vec2(1.0, 0.0)), SWARMPATH)
    text = render_trace_csv(trace)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["t", "leader_x", "leader_y"]
    assert "drone1_x" in header and "drone4_mode" in header
    assert len(lines) == trace.n_frames + 1


def test_csv_round_trip_swarmpath():
    trace = run(one_pole_spec(), SWARMPATH)
    rows = data_rows(render_trace_csv(trace))
    assert len(rows) == trace.n_frames
    assert rows[0][0] == "0.0"
    for n, cells in enumerate(rows):
        assert_row_is_frame(cells, trace, n)
    assert any(mode.startswith("O") for cells in rows for mode in cells[5::3])


def test_csv_round_trip_baseline_leaves_leader_empty():
    trace = run(straight_spec(goal=Vec2(1.0, 0.0)), CONVENTIONAL_APF)
    text = render_trace_csv(trace)
    assert ",,," in text.split("\n")[1]  # empty leader cells in data rows
    rows = data_rows(text)
    assert len(rows) == trace.n_frames
    for n, cells in enumerate(rows):
        assert_row_is_frame(cells, trace, n)


def test_csv_floats_survive_exactly():
    trace = run(one_pole_spec(), SWARMPATH)
    last = data_rows(render_trace_csv(trace))[-1]
    assert Vec2(float(last[3]), float(last[4])) == Vec2(*trace.positions[-1, 0])


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
# The edges of the range where orjson's text is repr's, and the extremes.
@example(1e-4)
@example(math.nextafter(1e-4, 0))
@example(1e16)
@example(math.nextafter(1e16, 0))
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
def test_repr_floats_round_trip(value):
    spec = straight_spec(formation_offsets=(Vec2(0.0, 0.0),))
    trace = SimulationTrace(spec, SWARMPATH, t=np.zeros(1),
                            positions=np.array([[[value, 0.0]]]),
                            leader=np.array([[value, -value]]),
                            modes=np.array([[-1]]), outcome=COMPLETED)
    (cells,) = data_rows(render_trace_csv(trace))
    assert_row_is_frame(cells, trace, 0)
    assert (float(cells[3]), float(cells[1]), float(cells[2])) == (value, value, -value)
    assert cells == ["0.0", repr(value), repr(-value), repr(value), "0.0", "L"]


@pytest.mark.parametrize("controller", [SWARMPATH, CONVENTIONAL_APF])
def test_csv_writes_repr_text_in_every_block(controller):
    # Two blocks, each holding cells whose orjson text differs from repr's: a
    # subnormal, 1e16, -0.0 and inf in t.  The reference joins repr row by row.
    frames = CSV_BLOCK + 2
    spec = straight_spec(formation_offsets=(Vec2(0.0, 0.0), Vec2(0.0, 1.0)))
    t = np.arange(frames) * 0.01
    positions = np.linspace(-3.0, 3.0, frames * 4).reshape(frames, 2, 2)
    leader = np.linspace(5e-5, 2e16, frames * 2).reshape(frames, 2)
    modes = np.arange(frames * 2).reshape(frames, 2) % 5 - 1
    for n in (3, CSV_BLOCK + 1):
        t[n] = math.inf
        positions[n] = [[5e-324, 1e16], [-0.0, -1e-5]]
        leader[n] = [-0.0, -1e300]
    swarm = controller == SWARMPATH
    trace = SimulationTrace(spec, controller, t, positions, leader if swarm else None,
                            modes if swarm else None, COMPLETED)
    lines = ["t,leader_x,leader_y,drone1_x,drone1_y,drone1_mode,drone2_x,drone2_y,drone2_mode"]
    for n in range(frames):
        cells = [repr(t[n].item()), *(map(repr, leader[n].tolist()) if swarm else ["", ""])]
        for d in range(2):
            mode = mode_cell(modes[n, d].item()) if swarm else ""
            cells += [*map(repr, positions[n, d].tolist()), mode]
        lines.append(",".join(cells))
    assert render_trace_csv(trace) == "\n".join(lines) + "\n"


def test_sig6():
    assert sig6(None) is None
    assert sig6(math.inf) is None  # strict JSON has no Infinity
    assert math.isnan(sig6(math.nan))
    assert sig6(1.23456789) == 1.23457
    assert sig6(0.0001234567) == 0.000123457
    assert sig6(25.0) == 25.0


def test_metrics_json_fields_and_rounding():
    trace = run(one_pole_spec(), SWARMPATH)
    doc = json.loads(render_metrics_json(trace))
    assert doc["controller"] == SWARMPATH
    assert doc["outcome"] == "completed"
    assert doc["frames"] == trace.n_frames
    assert set(doc["drone_path_lengths_m"]) == {"drone1", "drone2", "drone3", "drone4"}
    for v in doc["drone_path_lengths_m"].values():
        assert v == sig6(v)
    assert doc["min_obstacle_clearance_m"] > 0.0


def test_metrics_json_key_order_is_stable():
    trace = run(straight_spec(goal=Vec2(0.5, 0.0)), SWARMPATH)
    keys = list(json.loads(render_metrics_json(trace)).keys())
    assert keys == [
        "controller",
        "outcome",
        "frames",
        "duration_s",
        "completion_time_s",
        "leader_path_length_m",
        "drone_path_lengths_m",
        "max_pairwise_distance_m",
        "min_obstacle_clearance_m",
    ]


@pytest.mark.parametrize("controller", [SWARMPATH, CONVENTIONAL_APF])
def test_metrics_json_renders_the_metrics_report(controller):
    # metrics.report builds the document at full precision; the writer rounds it.
    trace = run(one_pole_spec(), controller)
    doc = report(trace)
    assert render_metrics_json(trace) == _render_report(doc)
    leader = None if trace.leader is None else path_length(trace.leader)
    assert doc["leader_path_length_m"] == leader
    assert list(doc["drone_path_lengths_m"].values()) == drone_path_lengths(trace)


def test_comparison_json_structure():
    spec = one_pole_spec()
    report = compare(run(spec, SWARMPATH), run(spec, CONVENTIONAL_APF))
    doc = json.loads(render_comparison_json(report))
    assert doc["swarmpath"]["outcome"] == "completed"
    assert doc["conventional_apf"]["outcome"] == "completed"
    assert doc["time_ratio"] == sig6(
        report["swarmpath"]["completion_time_s"] / report["conventional_apf"]["completion_time_s"]
    )
    assert len(doc["pairs"]) == 6
    assert doc["pairs"][0]["drones"] == [1, 2]
    assert len(doc["drones"]) == 4
    assert doc["drones"][0]["drone"] == 1
    assert "ape_definition" in doc


def test_reports_round_every_float_and_keep_everything_else():
    # Floats are rounded at any depth, -0.0 keeping its sign; ints (even
    # beyond sig6's digits), bools, None and strings pass through as they are.
    doc = {"x": 1.23456789,
           "nested": {"zero": -0.0, "rows": [[2.00000049, 10 ** 20], {"y": -1e-300 / 3}]},
           "flags": [True, False], "none": None, "text": "1.23456789", "n": 7}
    expected = {"x": 1.23457,
                "nested": {"zero": -0.0, "rows": [[2.0, 10 ** 20], {"y": -3.33333e-301}]},
                "flags": [True, False], "none": None, "text": "1.23456789", "n": 7}
    assert render_comparison_json(doc) == json.dumps(expected, indent=2) + "\n"
    assert '"zero": -0.0' in render_comparison_json(doc)


@pytest.mark.parametrize("controller", [SWARMPATH, CONVENTIONAL_APF])
def test_csv_keeps_negative_zero_apart_from_zero(controller):
    # -0.0 == 0.0 as values, but their cells must stay -0.0 and 0.0.
    spec = straight_spec()
    xs = np.array([0.0, -0.0, 0.0, -0.0, 1.5])
    positions = np.stack([xs, -xs], axis=1)[:, None, :]
    swarm = controller == SWARMPATH
    trace = SimulationTrace(spec, controller, np.arange(5) * spec.dt, positions,
                            np.stack([-xs, xs], axis=1) if swarm else None,
                            np.full((5, 1), -1) if swarm else None, COMPLETED)
    rows = data_rows(render_trace_csv(trace))
    assert [cells[3] for cells in rows] == ["0.0", "-0.0", "0.0", "-0.0", "1.5"]
    assert [cells[4] for cells in rows] == ["-0.0", "0.0", "-0.0", "0.0", "-1.5"]
    assert [cells[1:3] for cells in rows] == (
        [["-0.0", "0.0"], ["0.0", "-0.0"], ["-0.0", "0.0"], ["0.0", "-0.0"], ["-1.5", "1.5"]]
        if swarm else [["", ""]] * 5)
    assert [cells[0] for cells in rows] == [repr(t) for t in trace.t.tolist()]
