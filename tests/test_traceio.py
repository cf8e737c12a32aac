import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmpath.metrics import compare
from swarmpath.simulator import COMPLETED, CONVENTIONAL_APF, SWARMPATH, SimulationTrace, run
from swarmpath.traceio import (
    mode_cell,
    render_comparison_json,
    render_metrics_json,
    render_trace_csv,
    sig6,
    write_trace_csv,
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


def test_write_trace_csv_uses_unix_newlines(tmp_path):
    trace = run(straight_spec(goal=Vec2(0.5, 0.0)), SWARMPATH)
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, out)
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == render_trace_csv(trace)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_repr_floats_round_trip(value):
    spec = straight_spec(formation_offsets=(Vec2(0.0, 0.0),))
    trace = SimulationTrace(spec, SWARMPATH, t=np.zeros(1),
                            positions=np.array([[[value, 0.0]]]),
                            leader=np.array([[value, -value]]),
                            modes=np.array([[-1]]), outcome=COMPLETED)
    (cells,) = data_rows(render_trace_csv(trace))
    assert_row_is_frame(cells, trace, 0)
    assert (float(cells[3]), float(cells[1]), float(cells[2])) == (value, value, -value)


def test_sig6():
    assert sig6(None) is None
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


def test_comparison_json_structure():
    spec = one_pole_spec()
    report = compare(run(spec, SWARMPATH), run(spec, CONVENTIONAL_APF))
    doc = json.loads(render_comparison_json(report))
    assert doc["swarmpath"]["outcome"] == "completed"
    assert doc["conventional_apf"]["outcome"] == "completed"
    assert doc["time_ratio"] == sig6(
        report.sp_completion_time / report.base_completion_time
    )
    assert len(doc["pairs"]) == 6
    assert doc["pairs"][0]["drones"] == [1, 2]
    assert len(doc["drones"]) == 4
    assert doc["drones"][0]["drone"] == 1
    assert "ape_definition" in doc
