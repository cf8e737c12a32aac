"""Trajectory metrics and the controller comparison report.

Everything here reads the recorded SimulationTrace columns; nothing
re-integrates dynamics.  Every distance is one _lengths call: sqrt(dx * dx +
dy * dy), as np.linalg.norm takes it, and the hypot where that square overflows
or falls below the normal range.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .world import Gate, effective_obstacles
from .simulator import COMPLETED, CONVENTIONAL_APF, SWARMPATH, SimulationTrace

_TINY = sys.float_info.min  # the least normal float


def _lengths(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise length of (dx, dy); the hypot only where the square is not a
    finite normal float (it overflowed, or underflowed and lost digits)."""
    with np.errstate(over="ignore", under="ignore"):
        lengths = dx * dx
        lengths += dy * dy
    odd = (lengths < _TINY) | (lengths == math.inf)
    np.sqrt(lengths, out=lengths)
    lengths[odd] = np.hypot(dx[odd], dy[odd])
    return lengths


def _path_lengths(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Path length of each polyline in the (D, F) rows xs, ys: its segment lengths
    summed as one C-contiguous row, in np.sum's pairwise order (inf past float range)."""
    with np.errstate(over="ignore"):
        dx, dy = (np.subtract(v[:, 1:], v[:, :-1], order="C") for v in (xs, ys))
        return _lengths(dx, dy).sum(axis=1)


def path_length(points: np.ndarray) -> float:
    """Sum of segment lengths of an (N, 2) polyline."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got shape {pts.shape}")
    return float(_path_lengths(*pts.T[:, np.newaxis])[0])


def drone_path_lengths(trace: SimulationTrace) -> list[float]:
    """Every drone's path length in one pass, bit for bit path_length of its positions."""
    return _path_lengths(*trace.positions.T).tolist()


def pair_max_distances(trace: SimulationTrace) -> np.ndarray:
    """Largest separation of each drone pair over the whole run, (D, D) metres.

    Symmetric, with a zero diagonal.
    """
    xs, ys = np.ascontiguousarray(trace.positions.T)  # (D, F) rows, copied once
    out = np.zeros((trace.n_drones, trace.n_drones))
    for a in range(trace.n_drones - 1):
        # Drone a against every later drone at once.
        with np.errstate(over="ignore"):
            lengths = _lengths(xs[a + 1:] - xs[a], ys[a + 1:] - ys[a]).max(axis=1)
        out[a, a + 1:] = out[a + 1:, a] = lengths
    return out


def max_pairwise_distance(trace: SimulationTrace) -> float:
    """Largest separation between any two drones over the whole run.

    Zero for a single-drone swarm.
    """
    return float(pair_max_distances(trace).max())


def completion_time(trace: SimulationTrace) -> float | None:
    """t of the first frame where the swarm satisfies the completion predicate.

    None unless the run's outcome is completed; a completed run stops on that
    frame, so it is the last one.
    """
    return float(trace.t[-1]) if trace.outcome == COMPLETED else None


def _held(track: np.ndarray, frames: int) -> np.ndarray:
    """The track extended to frames rows by holding its final position."""
    return np.pad(track, ((0, frames - len(track)), (0, 0)), mode="edge")


def ape(trace_a: SimulationTrace, trace_b: SimulationTrace, drone: int) -> float:
    """Average position error of a drone between two runs, percent.

    100 * mean frame-wise separation / reference path length, where trace_b
    is the reference.  Tracks of different duration are compared by holding
    the final position of the shorter one.  Infinite where a frame's
    separation passes float range.
    """
    if trace_a.spec.dt != trace_b.spec.dt:
        raise ValueError(
            f"mismatched dt: {trace_a.spec.dt} vs {trace_b.spec.dt}")
    frames = max(trace_a.n_frames, trace_b.n_frames)
    pa, pb = (_held(t.positions[:, drone], frames) for t in (trace_a, trace_b))
    ref_length = path_length(pb)
    if ref_length == 0.0:
        raise ValueError(f"drone {drone}: reference path has zero length")
    with np.errstate(over="ignore"):  # a separation past float range is inf
        errors = _lengths(*(pa - pb).T)
    peak = float(errors.max())
    if peak == math.inf:
        return math.inf
    # Where np.mean's sum could overflow, average the errors over the largest.
    scale = peak if 2.0 * peak * len(errors) == math.inf else 1.0
    mean_err = float(np.mean(errors / scale)) * scale
    percent = 100.0 * mean_err / ref_length
    return percent if percent < math.inf else mean_err / ref_length * 100.0


def report(trace: SimulationTrace) -> dict:
    """The single-run report: metrics.json's document, in its key order, at full precision."""
    return {
        "controller": trace.controller,
        "outcome": trace.outcome,
        "frames": trace.n_frames,
        "duration_s": float(trace.t[-1]),
        "completion_time_s": completion_time(trace),
        "leader_path_length_m": None if trace.leader is None else path_length(trace.leader),
        "drone_path_lengths_m": {f"drone{i + 1}": length
                                 for i, length in enumerate(drone_path_lengths(trace))},
        "max_pairwise_distance_m": max_pairwise_distance(trace),
        "min_obstacle_clearance_m": min_obstacle_clearance(trace),
    }


def compare(sp: SimulationTrace, base: SimulationTrace) -> dict:
    """The comparison report of two runs of the same scenario: comparison.json's
    document, in its key order, at full precision.

    Drones are numbered from 1, as in files.  A run that did not complete
    keeps its outcome in the report and drops the ratios that need it (None),
    rather than failing the whole comparison; so does a drone whose APE has
    no reference path.
    """
    if sp.controller != SWARMPATH:
        raise ValueError(f"first trace must be {SWARMPATH}, got {sp.controller}")
    if base.controller != CONVENTIONAL_APF:
        raise ValueError(f"second trace must be {CONVENTIONAL_APF}, got {base.controller}")
    if sp.spec != base.spec:
        raise ValueError("traces come from different scenarios")

    t_sp, t_base = completion_time(sp), completion_time(base)
    d_sp, d_base = pair_max_distances(sp), pair_max_distances(base)
    sp_pairwise, base_pairwise = float(d_sp.max()), float(d_base.max())
    pairs = []
    for a, b in itertools.combinations(range(sp.n_drones), 2):
        pair_sp, pair_base = float(d_sp[a, b]), float(d_base[a, b])
        pairs.append({"drones": [a + 1, b + 1], "swarmpath_m": pair_sp,
                      "conventional_apf_m": pair_base, "ratio": _ratio(pair_sp, pair_base)})
    sp_lengths, base_lengths = drone_path_lengths(sp), drone_path_lengths(base)
    drones = []
    for i in range(sp.n_drones):
        try:
            err = ape(sp, base, i)
        except ValueError:
            err = None
        drones.append({"drone": i + 1, "swarmpath_path_m": sp_lengths[i],
                       "conventional_apf_path_m": base_lengths[i], "ape_percent": err})
    return {
        "swarmpath": {"outcome": sp.outcome, "completion_time_s": t_sp},
        "conventional_apf": {"outcome": base.outcome, "completion_time_s": t_base},
        "time_ratio": _ratio(t_sp, t_base),
        "max_pairwise_distance_m": {"swarmpath": sp_pairwise, "conventional_apf": base_pairwise,
                                    "ratio": _ratio(sp_pairwise, base_pairwise)},
        "pairs": pairs,
        "drones": drones,
        "ape_definition": "100 * mean position error / reference path length, "
                          "reference = conventional_apf",
    }


def _ratio(num: float | None, den: float | None) -> float | None:
    """num / den, or None when either is missing or den is not positive."""
    return num / den if num is not None and den is not None and den > 0 else None


def min_obstacle_clearance(trace: SimulationTrace) -> float:
    """Smallest surface distance any drone ever has to any obstacle body.

    Positive means the run was collision free.  Infinity when the scenario
    has no obstacles.

    Each (obstacle, drone) pair is bounded below by the distance from the
    obstacle's center to the box of that drone's rows, minus its radius, less
    a relative slack far above the rounding error of either side.  Pairs are
    measured against the drone's rows by ascending bound, and skipped once the
    bound reaches the running minimum, which a minimum of floats makes exact;
    a bound whose gap passes float range is NaN, sorts last and is measured.
    """
    posts = [(obs.center.x, obs.center.y, obs.radius) for obs in effective_obstacles(trace.spec)]
    cx, cy, radius = np.array(posts).reshape(-1, 3, 1).transpose(1, 0, 2)  # (O, 1) each
    xs, ys = np.ascontiguousarray(trace.positions.T)  # (D, F) rows, copied once
    best = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.hypot(np.maximum(np.maximum(xs.min(axis=1) - cx, 0.0), cx - xs.max(axis=1)),
                       np.maximum(np.maximum(ys.min(axis=1) - cy, 0.0), cy - ys.max(axis=1)))
        bounds = (gap - radius - 1e-12 * (gap + radius)).ravel()  # (O, D), flat
        order = np.argsort(bounds)
        for pair, bound in zip(order.tolist(), bounds[order].tolist()):
            if bound >= best:
                break
            post, drone = divmod(pair, len(xs))
            px, py, r = posts[post]
            best = min(best, float(np.min(_lengths(xs[drone] - px, ys[drone] - py))) - r)
    return best


def gate_crossings(trace: SimulationTrace, drone: int, gate: Gate) -> tuple[float, ...]:
    """Axial fractions at which a drone's path crosses the gate line.

    The gate line runs from pole_a's center (fraction 0) to pole_b's center
    (fraction 1); each crossing of that infinite line contributes the
    interpolated fraction of the crossing point.  A crossing strictly inside
    the open gap avoids both pole bodies: radius_a / L < f < 1 - radius_b / L
    with L the center distance.
    """
    ca = np.array(gate.pole_a.center.as_tuple())
    cb = np.array(gate.pole_b.center.as_tuple())
    axis = cb - ca
    length2 = float(axis @ axis)
    if length2 == 0.0:
        raise ValueError("gate poles share a center")
    normal = np.array([-axis[1], axis[0]])
    pts = trace.positions[:, drone]
    side = (pts - ca) @ normal
    fractions = []
    for n in range(len(pts) - 1):
        s0, s1 = side[n], side[n + 1]
        if s0 == s1 or (s0 > 0) == (s1 > 0):
            continue
        tau = s0 / (s0 - s1)
        crossing = pts[n] + tau * (pts[n + 1] - pts[n])
        fractions.append(float((crossing - ca) @ axis / length2))
    return tuple(fractions)
