"""Trace and report writers.

Trace CSV columns: t, leader_x, leader_y, then drone<i>_x, drone<i>_y,
drone<i>_mode per drone (drones numbered from 1 in files and reports).  Mode
cells hold L for leader-linked or O<k> with k the obstacle index; baseline
runs have no leader and no links, those cells stay empty.  Floats are written
with repr so float(cell) recovers each value exactly.

Report JSON uses fixed key order and rounds to 6 significant digits, which
keeps report bytes stable across platforms.
"""

from __future__ import annotations

import json

from .simulator import SWARMPATH, SimulationTrace
from . import metrics


def _fmt(value: float) -> str:
    return repr(float(value))


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
    swarm = trace.controller == SWARMPATH
    lines = [_header(trace.n_drones)]
    for frame in trace.frames:
        cells = [_fmt(frame.t)]
        if swarm:
            cells += [_fmt(frame.leader.position.x), _fmt(frame.leader.position.y)]
        else:
            cells += ["", ""]
        for drone in frame.drones:
            cells += [_fmt(drone.position.x), _fmt(drone.position.y)]
            cells.append(drone.mode.encode() if swarm else "")
        lines.append(",".join(cells))
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
        "duration_s": sig6(trace.frames[-1].t),
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
