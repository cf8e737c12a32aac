"""Trajectory metrics and the controller comparison report.

Everything here reads the recorded SimulationTrace columns; nothing
re-integrates dynamics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .world import Gate, effective_obstacles
from .simulator import COMPLETED, CONVENTIONAL_APF, SWARMPATH, SimulationTrace


def path_length(points: np.ndarray) -> float:
    """Sum of segment lengths of an (N, 2) polyline."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got shape {pts.shape}")
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def drone_path_length(trace: SimulationTrace, drone: int) -> float:
    return path_length(trace.drone_positions(drone))


def leader_path_length(trace: SimulationTrace) -> float | None:
    return None if trace.leader is None else path_length(trace.leader)


def pair_max_distance(trace: SimulationTrace, drone_a: int, drone_b: int) -> float:
    """Largest separation between two drones over the whole run."""
    pa = trace.drone_positions(drone_a)
    pb = trace.drone_positions(drone_b)
    return float(np.max(np.linalg.norm(pa - pb, axis=1)))


def max_pairwise_distance(trace: SimulationTrace) -> float:
    """Largest separation between any two drones over the whole run.

    Zero for a single-drone swarm.
    """
    pos = trace.positions
    best = 0.0
    for a in range(trace.n_drones - 1):
        # Drone a against every later drone at once.  sqrt is monotone, so its
        # value at the largest square equals the largest np.linalg.norm.
        dx, dy = (pos[:, a + 1:, k] - pos[:, a, None, k] for k in (0, 1))
        best = max(best, math.sqrt(float(np.max(dx * dx + dy * dy))))
    return best


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
    the final position of the shorter one.
    """
    if trace_a.spec.dt != trace_b.spec.dt:
        raise ValueError(
            f"mismatched dt: {trace_a.spec.dt} vs {trace_b.spec.dt}")
    frames = max(trace_a.n_frames, trace_b.n_frames)
    pa, pb = (_held(t.drone_positions(drone), frames) for t in (trace_a, trace_b))
    ref_length = path_length(pb)
    if ref_length == 0.0:
        raise ValueError(f"drone {drone}: reference path has zero length")
    mean_err = float(np.mean(np.linalg.norm(pa - pb, axis=1)))
    return 100.0 * mean_err / ref_length


@dataclass(frozen=True)
class DroneComparison:
    """Per-drone numbers; ape_percent uses the baseline as reference."""

    drone: int
    sp_path_length: float
    base_path_length: float
    ape_percent: float | None


@dataclass(frozen=True)
class PairComparison:
    """Largest separation of one drone pair under each controller."""

    drone_a: int
    drone_b: int
    sp_max_distance: float
    base_max_distance: float
    ratio: float | None  # sp / base, None when the baseline distance is zero


@dataclass(frozen=True)
class ComparisonReport:
    """Adaptive-link swarm vs conventional potential-field swarm."""

    sp_outcome: str
    base_outcome: str
    sp_completion_time: float | None
    base_completion_time: float | None
    time_ratio: float | None  # sp / base, None unless both completed
    sp_max_pairwise: float
    base_max_pairwise: float
    pairwise_ratio: float | None
    drones: tuple[DroneComparison, ...]
    pairs: tuple[PairComparison, ...]


def compare(sp: SimulationTrace, base: SimulationTrace) -> ComparisonReport:
    """Build the comparison report for two runs of the same scenario.

    A run that did not complete keeps its outcome in the report and drops the
    ratios that need it, rather than failing the whole comparison.
    """
    if sp.controller != SWARMPATH:
        raise ValueError(f"first trace must be {SWARMPATH}, got {sp.controller}")
    if base.controller != CONVENTIONAL_APF:
        raise ValueError(f"second trace must be {CONVENTIONAL_APF}, got {base.controller}")
    if sp.spec != base.spec:
        raise ValueError("traces come from different scenarios")

    t_sp = completion_time(sp)
    t_base = completion_time(base)
    sp_pairwise = max_pairwise_distance(sp)
    base_pairwise = max_pairwise_distance(base)

    drones = []
    for i in range(sp.n_drones):
        try:
            err = ape(sp, base, i)
        except ValueError:
            err = None
        drones.append(DroneComparison(
            i, drone_path_length(sp, i), drone_path_length(base, i), err))

    pairs = []
    for a, b in itertools.combinations(range(sp.n_drones), 2):
        d_sp = pair_max_distance(sp, a, b)
        d_base = pair_max_distance(base, a, b)
        pairs.append(PairComparison(a, b, d_sp, d_base, _ratio(d_sp, d_base)))

    return ComparisonReport(
        sp_outcome=sp.outcome,
        base_outcome=base.outcome,
        sp_completion_time=t_sp,
        base_completion_time=t_base,
        time_ratio=_ratio(t_sp, t_base),
        sp_max_pairwise=sp_pairwise,
        base_max_pairwise=base_pairwise,
        pairwise_ratio=_ratio(sp_pairwise, base_pairwise),
        drones=tuple(drones),
        pairs=tuple(pairs),
    )


def _ratio(num: float | None, den: float | None) -> float | None:
    """num / den, or None when either is missing or den is not positive."""
    return num / den if num is not None and den is not None and den > 0 else None


def min_obstacle_clearance(trace: SimulationTrace) -> float:
    """Smallest surface distance any drone ever has to any obstacle body.

    Positive means the run was collision free.  Infinity when the scenario
    has no obstacles.
    """
    obstacles = effective_obstacles(trace.spec)
    tracks = trace.positions  # (F, D, 2)
    lo = tracks.min(axis=(0, 1))
    hi = tracks.max(axis=(0, 1))
    # Lower bound per obstacle: distance from its center to the bounding box
    # of all tracks, minus its radius, less a relative slack far above the
    # rounding error of either side.  Obstacles are visited by ascending bound
    # and skipped once the bound reaches the running minimum, which a minimum
    # of floats makes exact.
    bounds = []
    for obs in obstacles:
        cx, cy = obs.center.x, obs.center.y
        gap = math.hypot(max(lo[0] - cx, 0.0, cx - hi[0]), max(lo[1] - cy, 0.0, cy - hi[1]))
        bounds.append((gap - obs.radius - 1e-12 * (gap + obs.radius), obs))
    bounds.sort(key=lambda pair: pair[0])
    xs, ys = tracks[..., 0], tracks[..., 1]
    best = math.inf
    for bound, obs in bounds:
        if bound >= best:
            break
        # sqrt and the subtraction are monotone: applied to the smallest
        # square they give the smallest surface distance.  Only a square that
        # overflows takes the slower hypot, which cannot.
        with np.errstate(over="ignore"):
            dx, dy = xs - obs.center.x, ys - obs.center.y
            dist = math.sqrt(float(np.min(dx * dx + dy * dy)))
        if not math.isfinite(dist):
            dist = float(np.min(np.hypot(dx, dy)))
        best = min(best, dist - obs.radius)
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
    pts = trace.drone_positions(drone)
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
