"""Static SVG rendering of recorded runs.

Hand-written SVG whose every coordinate is "%.2f"'s text (a panel's polyline
pixels in one numpy pass), so the same trace always produces the same bytes
on every platform.  Obstacle bodies are dark, the repulsion onset radius is
drawn blue and the link handover radius green; stretches where a drone is
obstacle-linked are overdrawn in green.
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
    """World-to-pixel transform for one panel, in 2 m units so that no span of finite
    coordinates overflows; halving is exact and the scale doubles, so a pixel that
    does not overflow in metres keeps its bits.  The panel fits the width, or a
    height of 1e300 px where that is smaller, so a tall panel's height is finite; a
    panel with no extent takes its coordinates' magnitude as its span."""

    def __init__(self, spec: ScenarioSpec, traces: list[SimulationTrace]):
        xs = [spec.start.x, spec.goal.x]
        ys = [spec.start.y, spec.goal.y]
        for obs in effective_obstacles(spec):
            xs += [obs.center.x - obs.r_apf, obs.center.x + obs.r_apf]
            ys += [obs.center.y - obs.r_apf, obs.center.y + obs.r_apf]
        for trace in traces:
            xs += [float(trace.positions[..., 0].min()), float(trace.positions[..., 0].max())]
            ys += [float(trace.positions[..., 1].min()), float(trace.positions[..., 1].max())]
        x0, x1 = (min(xs) - WORLD_PAD) * 0.5, (max(xs) + WORLD_PAD) * 0.5
        y0, y1 = (min(ys) - WORLD_PAD) * 0.5, (max(ys) + WORLD_PAD) * 0.5
        width = WIDTH - 2 * MARGIN  # px
        self.scale = width / (max(x1 - x0, (y1 - y0) * (width * 1e-300)) or abs(x0))  # px per 2 m
        self.x0, self.y1 = x0, y1
        self.height = (y1 - y0) * self.scale + 2 * MARGIN

    def px(self, x, y):
        """Pixel coordinates of world x, y: floats or equal-length arrays."""
        # SVG y grows downward
        return (MARGIN + (x * 0.5 - self.x0) * self.scale,
                MARGIN + (self.y1 - y * 0.5) * self.scale)


# Digit pairs b"00" .. b"99"; a pixel's cents and separator b".00," .. b".99 ".
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "u2")
_CENTS = np.frombuffer(b"".join(b".%02d%c" % (i, sep) for sep in b", " for i in range(100)), "u4")


def _polylines(frame: _Frame, lines: list[tuple[np.ndarray, str]]) -> list[str]:
    """Each (points, style) as a polyline element, every pixel as "%.2f" gives it.

    A line past MAX_POLYLINE points is strided, keeping its last point.  A
    pixel v with a clear sign bit, 100 * v below 999999 and more than 1e-6
    (far above its rounding) from a half is rint(100 * v), written from the
    tables into 8 bytes with leading zeros as NUL, which one translate drops.
    "%.2f" % v writes the others: -0.0, negative, large, non-finite, near ties.
    """
    kept = []
    for points, _ in lines:
        step = max(1, len(points) // MAX_POLYLINE)
        kept.append(points[::step])
        if (len(points) - 1) % step:
            kept[-1] = np.concatenate([kept[-1], points[-1:]])
    px, py = frame.px(*np.concatenate(kept).T)
    values = np.column_stack((px, py)).ravel()  # x, y of each point in turn
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 100.0
        rounded = np.rint(scaled)
        exact = (~np.signbit(values) & (scaled < 999999.0)
                 & (np.abs(scaled - rounded) < 0.5 - 1e-6))
    rounded = np.where(exact, rounded, 0.0)
    # Digit pairs of rint(100 * v) = 10000 * high + 100 * low + cents, in exact float steps.
    whole = np.floor(rounded / 100.0)
    high = np.floor(rounded / 10000.0)
    cents = rounded - 100.0 * whole
    cents[1::2] += 100.0  # a y pixel is followed by " "
    cells = np.empty((len(values), 8), np.uint8)
    cells.view("u2")[:, 0] = _PAIRS[high.astype(np.intp)]
    cells.view("u2")[:, 1] = _PAIRS[(whole - 100.0 * high).astype(np.intp)]
    cells.view("u4")[:, 1] = _CENTS[cents.astype(np.intp)]
    for column, least in enumerate((1000.0, 100.0, 10.0)):  # leading zeros to NUL
        cells[:, column] *= whole >= least
    odd = np.flatnonzero(~exact)
    cells[odd, :7] = (2, 0, 0, 0, 0, 0, 0)  # \2 marks where "%.2f" writes the pixel
    cells[2 * np.cumsum([len(points) for points in kept]) - 1, 7] = 1  # a line's end
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    if len(odd):
        text = text.replace("\2", "%s") % tuple("%.2f" % v for v in values[odd].tolist())
    return [f'<polyline points="{coords}" fill="none" {style}/>'
            for coords, (_, style) in zip(text.split("\1"), lines)]


def _circle(frame: _Frame, cx: float, cy: float, r: float, style: str) -> str:
    px, py = frame.px(cx, cy)
    return f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r * 0.5 * frame.scale:.2f}" {style}/>'


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
        (x1, y1), (x2, y2) = (frame.px(*pole.center.as_tuple())
                              for pole in (gate.pole_a, gate.pole_b))
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="#bbbbbb" stroke-dasharray="2 4"/>')
    lines = []
    if trace.leader is not None:
        lines.append((trace.leader, f'stroke="{LEADER_COLOR}" stroke-dasharray="7 4"'))
    for i in range(trace.n_drones):
        color = DRONE_COLORS[i % len(DRONE_COLORS)]
        pts = trace.positions[:, i]
        lines.append((pts, f'stroke="{color}" stroke-width="1.4"'))
        lines += [(pts[lo:hi + 1], f'stroke="{LINKED_COLOR}" stroke-width="3" opacity="0.75"')
                  for lo, hi in _linked_spans(trace, i)]
    parts += _polylines(frame, lines)
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


def render_trace_svg(trace: SimulationTrace) -> str:
    """One panel showing a single run over the scenario geometry."""
    spec = trace.spec
    frame = _Frame(spec, [trace])
    kind = "adaptive links" if trace.controller == SWARMPATH else "independent drones"
    body = _panel(frame, spec, trace, f"{trace.controller} ({kind}), outcome: {trace.outcome}")
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
