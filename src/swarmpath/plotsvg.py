"""Static SVG rendering of recorded runs.

Hand-written SVG with fixed coordinate formatting, so the same trace always
produces the same bytes on every platform.  Obstacle bodies are dark, the
repulsion onset radius is drawn blue and the link handover radius green;
stretches where a drone is obstacle-linked are overdrawn in green.
"""

from __future__ import annotations

import numpy as np

from .world import ScenarioSpec, effective_obstacles
from .simulator import SWARMPATH, SimulationTrace

WIDTH = 900.0         # px
MARGIN = 40.0         # px
WORLD_PAD = 0.6       # m of world space kept around the geometry
MAX_POLYLINE = 900    # points per polyline before striding

DRONE_COLORS = ("#d62728", "#ff7f0e", "#1f77b4", "#9467bd", "#8c564b", "#e377c2")
LEADER_COLOR = "#222222"
BODY_COLOR = "#555555"
APF_COLOR = "#7aa6d0"
IMP_COLOR = "#69b578"
LINKED_COLOR = "#2ca02c"


class _Frame:
    """World-to-pixel transform for one panel."""

    def __init__(self, spec: ScenarioSpec, traces: list[SimulationTrace]):
        xs = [spec.start.x, spec.goal.x]
        ys = [spec.start.y, spec.goal.y]
        for obs in effective_obstacles(spec):
            xs += [obs.center.x - obs.r_apf, obs.center.x + obs.r_apf]
            ys += [obs.center.y - obs.r_apf, obs.center.y + obs.r_apf]
        for trace in traces:
            xs += [float(trace.positions[..., 0].min()), float(trace.positions[..., 0].max())]
            ys += [float(trace.positions[..., 1].min()), float(trace.positions[..., 1].max())]
        x0, x1 = min(xs) - WORLD_PAD, max(xs) + WORLD_PAD
        y0, y1 = min(ys) - WORLD_PAD, max(ys) + WORLD_PAD
        self.scale = (WIDTH - 2 * MARGIN) / (x1 - x0)
        self.x0, self.y1 = x0, y1
        self.height = (y1 - y0) * self.scale + 2 * MARGIN

    def px(self, x: float, y: float) -> tuple[float, float]:
        # SVG y grows downward
        return (MARGIN + (x - self.x0) * self.scale,
                MARGIN + (self.y1 - y) * self.scale)

    def fmt(self, x: float, y: float) -> str:
        px, py = self.px(x, y)
        return f"{px:.2f},{py:.2f}"


def _stride(n: int) -> int:
    return max(1, n // MAX_POLYLINE)


def _polyline(frame: _Frame, points: np.ndarray, style: str) -> str:
    step = _stride(len(points))
    idx = list(range(0, len(points), step))
    if idx[-1] != len(points) - 1:
        idx.append(len(points) - 1)
    coords = " ".join(frame.fmt(float(points[i, 0]), float(points[i, 1])) for i in idx)
    return f'<polyline points="{coords}" fill="none" {style}/>'


def _circle(frame: _Frame, cx: float, cy: float, r: float, style: str) -> str:
    px, py = frame.px(cx, cy)
    return f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r * frame.scale:.2f}" {style}/>'


def _panel(frame: _Frame, spec: ScenarioSpec, trace: SimulationTrace, title: str) -> list[str]:
    parts = [f'<text x="{MARGIN:.2f}" y="22.00" font-family="sans-serif" '
             f'font-size="15" fill="#111">{title}</text>']
    for obs in effective_obstacles(spec):
        c = obs.center
        parts.append(_circle(frame, c.x, c.y, obs.r_apf,
                             f'fill="none" stroke="{APF_COLOR}" stroke-dasharray="5 4"'))
        parts.append(_circle(frame, c.x, c.y, obs.r_imp,
                             f'fill="none" stroke="{IMP_COLOR}" stroke-dasharray="3 3"'))
        parts.append(_circle(frame, c.x, c.y, obs.radius, f'fill="{BODY_COLOR}"'))
    for gate in spec.gates:
        a, b = gate.pole_a.center, gate.pole_b.center
        parts.append(f'<line x1="{frame.px(a.x, a.y)[0]:.2f}" y1="{frame.px(a.x, a.y)[1]:.2f}" '
                     f'x2="{frame.px(b.x, b.y)[0]:.2f}" y2="{frame.px(b.x, b.y)[1]:.2f}" '
                     f'stroke="#bbbbbb" stroke-dasharray="2 4"/>')
    if trace.leader is not None:
        parts.append(_polyline(frame, trace.leader,
                               f'stroke="{LEADER_COLOR}" stroke-dasharray="7 4"'))
    for i in range(trace.n_drones):
        color = DRONE_COLORS[i % len(DRONE_COLORS)]
        pts = trace.drone_positions(i)
        parts.append(_polyline(frame, pts, f'stroke="{color}" stroke-width="1.4"'))
        for lo, hi in _linked_spans(trace, i):
            parts.append(_polyline(frame, pts[lo:hi + 1],
                                   f'stroke="{LINKED_COLOR}" stroke-width="3" opacity="0.75"'))
    parts.append(_circle(frame, spec.start.x, spec.start.y, 0.06, 'fill="#111111"'))
    parts.append(_circle(frame, spec.goal.x, spec.goal.y, 0.06,
                         'fill="none" stroke="#111111" stroke-width="2"'))
    for label, p in (("start", spec.start), ("goal", spec.goal)):
        px, py = frame.px(p.x, p.y)
        parts.append(f'<text x="{px + 8:.2f}" y="{py - 8:.2f}" font-family="sans-serif" '
                     f'font-size="12" fill="#111">{label}</text>')
    for i in range(trace.n_drones):
        color = DRONE_COLORS[i % len(DRONE_COLORS)]
        y = 40 + 16 * i
        parts.append(f'<line x1="{WIDTH - 150:.2f}" y1="{y:.2f}" x2="{WIDTH - 126:.2f}" '
                     f'y2="{y:.2f}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{WIDTH - 120:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="12" fill="#111">drone {i + 1}</text>')
    return parts


def _linked_spans(trace: SimulationTrace, drone: int) -> list[tuple[int, int]]:
    """Frame index ranges where the drone is obstacle-linked.

    Each span runs from the frame before the link attaches to the first frame
    after it releases, clipped to the trace.
    """
    if trace.modes is None:
        return []
    edges = np.diff(np.concatenate(([0], trace.modes[:, drone] >= 0, [0])).astype(int))
    starts, ends = np.flatnonzero(edges > 0), np.flatnonzero(edges < 0)
    last = trace.n_frames - 1
    return [(max(int(s) - 1, 0), min(int(e), last)) for s, e in zip(starts, ends)]


def render_trace_svg(trace: SimulationTrace, title: str | None = None) -> str:
    """One panel showing a single run over the scenario geometry."""
    spec = trace.spec
    frame = _Frame(spec, [trace])
    if title is None:
        kind = "adaptive links" if trace.controller == SWARMPATH else "independent drones"
        title = f"{trace.controller} ({kind}), outcome: {trace.outcome}"
    body = _panel(frame, spec, trace, title)
    return _document(frame.height, body)


def render_compare_svg(sp: SimulationTrace, base: SimulationTrace) -> str:
    """Two stacked panels: adaptive-link run above, conventional run below."""
    spec = sp.spec
    frame = _Frame(spec, [sp, base])
    top = _panel(frame, spec, sp, f"swarmpath, outcome: {sp.outcome}")
    bottom = _panel(frame, spec, base, f"conventional-apf, outcome: {base.outcome}")
    body = ['<g>'] + top + ['</g>', f'<g transform="translate(0,{frame.height:.2f})">']
    body += bottom + ['</g>']
    return _document(frame.height * 2, body)


def _document(height: float, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
            f'height="{height:.2f}" viewBox="0 0 {WIDTH:.0f} {height:.2f}">')
    bg = f'<rect width="{WIDTH:.0f}" height="{height:.2f}" fill="#ffffff"/>'
    return "\n".join([head, bg] + body + ["</svg>"]) + "\n"
