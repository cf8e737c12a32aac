"""Trace and report writers.

The trace CSV is the SimulationTrace columns side by side, one row per frame:
t, leader_x, leader_y, then drone<i>_x, drone<i>_y, drone<i>_mode per drone
(drones numbered from 1 in files and reports).  Mode cells hold L for
leader-linked or O<k> with k the obstacle index; baseline runs have no leader
and no links, those cells stay empty.  Floats are written with repr so
float(cell) recovers each value exactly; a block of frames formats each
distinct float, by bit pattern, once.

Report JSON uses fixed key order and rounds to 6 significant digits, which
keeps report bytes stable across platforms.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .simulator import SimulationTrace
from . import metrics

CSV_BLOCK = 128  # frames a trace CSV formats and joins at a time


def mode_cell(code: int) -> str:
    """Cell text of a modes-column code: L for the leader (-1), else O<code>."""
    return "L" if code < 0 else f"O{code}"


def sig6(value: float | None) -> float | None:
    """Round to 6 significant digits for report output."""
    if value is None:
        return None
    return float(f"{value:.6g}")


def _header(n_drones: int) -> str:
    drones = (f"drone{i}_{col}" for i in range(1, n_drones + 1) for col in ("x", "y", "mode"))
    return ",".join(["t", "leader_x", "leader_y", *drones])


def render_trace_csv(trace: SimulationTrace) -> str:
    """Serialize a recorded run to CSV text, built column by column.

    A run repeats many floats (drones riding slots a shared offset apart, a
    settled leader), so the frames are formatted CSV_BLOCK at a time and each
    distinct float of a block once: its float columns are keyed by their bit
    patterns, which keeps -0.0 apart from 0.0, and every cell takes its
    key's text.  Each block is joined into one text before the next starts,
    so its cells and rows are freed as it ends.
    """
    frames = trace.n_frames
    floats = [trace.t[:, None], trace.positions.reshape(frames, -1)]
    if trace.leader is None:
        modes = [[""] * frames] * trace.n_drones
    else:
        floats.insert(1, trace.leader)
        # A run uses few distinct codes, so each cell text is made once.
        modes = [list(map({c: mode_cell(c) for c in set(codes)}.__getitem__, codes))
                 for codes in trace.modes.T.tolist()]
    table = np.concatenate(floats, axis=1)
    parts = [_header(trace.n_drones)]
    for lo in range(0, frames, CSV_BLOCK):
        block = table[lo:lo + CSV_BLOCK]
        bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        t, *columns = texts[inverse].reshape(block.shape).T.tolist()
        if trace.leader is None:
            columns[:0] = [[""] * len(t)] * 2
        cells = [codes[lo:lo + CSV_BLOCK] for codes in modes]
        tracks = chain.from_iterable(zip(columns[2::2], columns[3::2], cells))
        parts.append("\n".join(map(",".join, zip(t, *columns[:2], *tracks))))
    parts.append("")
    return "\n".join(parts)


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
            f"drone{i + 1}": sig6(length)
            for i, length in enumerate(metrics.drone_path_lengths(trace))
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
