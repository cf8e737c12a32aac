"""Trace and report writers.

The trace CSV is the SimulationTrace columns side by side, one row per frame:
t, leader_x, leader_y, then drone<i>_x, drone<i>_y, drone<i>_mode per drone
(drones numbered from 1 in files and reports).  Mode cells hold L for
leader-linked or O<k> with k the obstacle index; baseline runs have no leader
and no links, those cells stay empty.  Floats are written with repr so
float(cell) recovers each value exactly; a block of frames formats each
distinct float, by bit pattern, once.

Report JSON keeps its document's key order and rounds every float to 6
significant digits in one walk, which keeps report bytes stable across
platforms.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .simulator import SimulationTrace
from . import metrics

CSV_BLOCK = 128  # frames a trace CSV formats and joins at a time


def mode_cell(code: int) -> str:
    """Cell text of a modes-column code: L for the leader (-1), else O<code>."""
    return "L" if code < 0 else f"O{code}"


def sig6(value: float | None) -> float | None:
    """Round to 6 significant digits for report output; +inf, which strict JSON
    cannot hold, is None (null)."""
    if value is None or value == math.inf:
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


def _render_report(doc: dict) -> str:
    """A report document as JSON text: every float at any depth rounded with sig6."""
    def rounded(value):
        if isinstance(value, float):
            return sig6(value)
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, list):
            return [rounded(item) for item in value]
        return value  # int, bool, None, str
    return json.dumps(rounded(doc), indent=2) + "\n"


def render_metrics_json(trace: SimulationTrace) -> str:
    """Single-run metrics report."""
    return _render_report({
        "controller": trace.controller,
        "outcome": trace.outcome,
        "frames": trace.n_frames,
        "duration_s": float(trace.t[-1]),
        "completion_time_s": metrics.completion_time(trace),
        "leader_path_length_m": metrics.leader_path_length(trace),
        "drone_path_lengths_m": {
            f"drone{i + 1}": length
            for i, length in enumerate(metrics.drone_path_lengths(trace))
        },
        "max_pairwise_distance_m": metrics.max_pairwise_distance(trace),
        "min_obstacle_clearance_m": metrics.min_obstacle_clearance(trace),
    })


def render_comparison_json(doc: dict) -> str:
    """Two-controller comparison report: metrics.compare's document."""
    return _render_report(doc)
