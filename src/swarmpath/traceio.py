"""Trace and report writers.

The trace CSV is the SimulationTrace columns side by side, one row per frame:
t, leader_x, leader_y, then drone<i>_x, drone<i>_y, drone<i>_mode per drone
(drones numbered from 1 in files and reports).  Mode cells hold L for
leader-linked or O<k> with k the obstacle index; baseline runs have no leader
and no links, those cells stay empty.  Every float cell is repr's text, so
float(cell) recovers each value exactly.  orjson writes most of them: its
shortest round-trip digits are repr's for zeros and for 1e-4 <= |v| < 1e16.
Outside that range repr writes an exponent or digits orjson does not (1e+16
against 1e16, 1e-05 against 0.00001), and orjson writes inf and nan as
null, so those cells hold repr's text.

Report JSON keeps its document's key order and rounds every float to 6
significant digits in one walk, which keeps report bytes stable across
platforms.
"""

from __future__ import annotations

import json
import math

import numpy as np
import orjson

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
    """Serialize a recorded run to CSV text, CSV_BLOCK frames at a time.

    Each block becomes one table of cells in file order; orjson writes each
    row as a JSON array, and dropping the brackets and quotes of their
    lines leaves the CSV rows.  A float cell outside orjson's repr-equal
    range is its repr text.  Each block is joined into one text before the
    next starts, so its cells are freed as it ends.
    """
    frames, n = trace.n_frames, trace.n_drones
    if trace.leader is not None:
        # Each code's cell text is made once; code c is at texts[c + 1].
        codes = range(-1, int(trace.modes.max(initial=-1)) + 1)
        texts = np.array([mode_cell(c) for c in codes], dtype=object)
    parts = [_header(n)]
    for lo in range(0, frames, CSV_BLOCK):
        block = slice(lo, lo + CSV_BLOCK)
        values = np.zeros((len(trace.t[block]), n + 1, 3))  # t, leader, then x, y, mode per drone
        values[:, 0, 0] = trace.t[block]
        values[:, 1:, :2] = trace.positions[block]
        if trace.leader is not None:
            values[:, 0, 1:] = trace.leader[block]
        cells = values.astype(object)
        magnitude = np.abs(values)
        odd = (values != 0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))
        cells[odd] = [repr(v) for v in values[odd].tolist()]
        if trace.leader is None:
            cells[:, 0, 1:] = cells[:, 1:, 2] = ""
        else:
            cells[:, 1:, 2] = texts[trace.modes[block] + 1]
        rows = map(orjson.dumps, cells.reshape(len(values), -1).tolist())
        parts.append(b"\n".join(rows).translate(None, b'[]"').decode())
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
    """Single-run metrics report: metrics.report's document."""
    return _render_report(metrics.report(trace))


def render_comparison_json(doc: dict) -> str:
    """Two-controller comparison report: metrics.compare's document."""
    return _render_report(doc)
