"""Trace and report writers.

The trace CSV is the SimulationTrace columns side by side, one row per frame:
t, leader_x, leader_y, then drone<i>_x, drone<i>_y, drone<i>_mode per drone
(drones numbered from 1 in files and reports).  Mode cells hold L for
leader-linked or O<k> with k the obstacle index; baseline runs have no leader
and no links, those cells stay empty.  Floats are written with repr so
float(cell) recovers each value exactly.

Report JSON uses fixed key order and rounds to 6 significant digits, which
keeps report bytes stable across platforms.
"""

from __future__ import annotations

import json

from .simulator import SimulationTrace
from . import metrics


def mode_cell(code: int) -> str:
    """Cell text of a modes-column code: L for the leader (-1), else O<code>."""
    return "L" if code < 0 else f"O{code}"


def sig6(value: float | None) -> float | None:
    """Round to 6 significant digits for report output."""
    if value is None:
        return None
    return float(f"{value:.6g}")


def _header(n_drones: int) -> str:
    cols = ["t", "leader_x", "leader_y"]
    for i in range(1, n_drones + 1):
        cols += [f"drone{i}_x", f"drone{i}_y", f"drone{i}_mode"]
    return ",".join(cols)


def render_trace_csv(trace: SimulationTrace) -> str:
    """Serialize a recorded run to CSV text."""
    if trace.leader is None:
        leader = [("", "")] * trace.n_frames
        modes = [[""] * trace.n_drones] * trace.n_frames
    else:
        leader = [(repr(x), repr(y)) for x, y in trace.leader.tolist()]
        modes = [[mode_cell(c) for c in row] for row in trace.modes.tolist()]
    lines = [_header(trace.n_drones)]
    for t, (lx, ly), row, cells in zip(trace.t.tolist(), leader,
                                       trace.positions.tolist(), modes):
        parts = [repr(t), lx, ly]
        for (x, y), mode in zip(row, cells):
            parts += [repr(x), repr(y), mode]
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: SimulationTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_trace_csv(trace))


def render_metrics_json(trace: SimulationTrace) -> str:
    """Single-run metrics report."""
    doc = {
        "controller": trace.controller,
        "outcome": trace.outcome,
        "frames": trace.n_frames,
        "duration_s": sig6(float(trace.t[-1])),
        "completion_time_s": sig6(metrics.completion_time(trace)),
        "leader_path_length_m": sig6(metrics.leader_path_length(trace)),
        "drone_path_lengths_m": {
            f"drone{i + 1}": sig6(metrics.drone_path_length(trace, i))
            for i in range(trace.n_drones)
        },
        "max_pairwise_distance_m": sig6(metrics.max_pairwise_distance(trace)),
        "min_obstacle_clearance_m": _clearance(trace),
    }
    return json.dumps(doc, indent=2) + "\n"


def _clearance(trace: SimulationTrace) -> float | None:
    value = metrics.min_obstacle_clearance(trace)
    return None if value == float("inf") else sig6(value)


def render_comparison_json(report: metrics.ComparisonReport) -> str:
    """Two-controller comparison report.

    ape_percent is 100 * mean position error / reference path length with the
    conventional controller as reference.
    """
    doc = {
        "swarmpath": {
            "outcome": report.sp_outcome,
            "completion_time_s": sig6(report.sp_completion_time),
        },
        "conventional_apf": {
            "outcome": report.base_outcome,
            "completion_time_s": sig6(report.base_completion_time),
        },
        "time_ratio": sig6(report.time_ratio),
        "max_pairwise_distance_m": {
            "swarmpath": sig6(report.sp_max_pairwise),
            "conventional_apf": sig6(report.base_max_pairwise),
            "ratio": sig6(report.pairwise_ratio),
        },
        "pairs": [
            {
                "drones": [p.drone_a + 1, p.drone_b + 1],
                "swarmpath_m": sig6(p.sp_max_distance),
                "conventional_apf_m": sig6(p.base_max_distance),
                "ratio": sig6(p.ratio),
            }
            for p in report.pairs
        ],
        "drones": [
            {
                "drone": d.drone + 1,
                "swarmpath_path_m": sig6(d.sp_path_length),
                "conventional_apf_path_m": sig6(d.base_path_length),
                "ape_percent": sig6(d.ape_percent),
            }
            for d in report.drones
        ],
        "ape_definition": "100 * mean position error / reference path length, "
                          "reference = conventional_apf",
    }
    return json.dumps(doc, indent=2) + "\n"
