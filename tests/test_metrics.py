import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from swarmpath.metrics import (
    ape,
    compare,
    completion_time,
    drone_path_lengths,
    gate_crossings,
    max_pairwise_distance,
    min_obstacle_clearance,
    pair_max_distances,
    path_length,
)
from swarmpath.simulator import (COMPLETED, CONTROLLERS, CONVENTIONAL_APF, SWARMPATH,
                                 SimulationTrace, run)
from swarmpath.world import Gate, Obstacle, Vec2, effective_obstacles, load_scenario, read_scenario
from conftest import SCENARIO_DIR, grid16_forest_doc, one_pole_spec, straight_spec


def test_path_length_polyline():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 14.0]])
    assert path_length(pts) == pytest.approx(15.0)
    assert path_length(np.zeros((1, 2))) == 0.0
    assert path_length(np.zeros((0, 2))) == 0.0
    with pytest.raises(ValueError):
        path_length(np.zeros((3, 3)))


def test_straight_run_lengths_match_travel():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    trace = run(spec, SWARMPATH)
    expected = 1.0 - spec.apf.goal_threshold
    assert path_length(trace.leader) == pytest.approx(expected, abs=0.01)
    for i in range(trace.n_drones):
        assert path_length(trace.positions[:, i]) == pytest.approx(expected, abs=0.01)


def test_completion_time_straight_run():
    # 0.9 m at 0.5 m/s in 0.01 s steps: latched after step 180, t = 1.80.
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    assert completion_time(trace) == pytest.approx(1.80, abs=1e-9)


def test_completion_time_none_when_unfinished():
    spec = straight_spec(goal=Vec2(50.0, 0.0), max_steps=10)
    assert completion_time(run(spec, SWARMPATH)) is None


def test_pairwise_distances_rigid_formation():
    spec = straight_spec(goal=Vec2(1.5, 0.0))
    trace = run(spec, SWARMPATH)
    # Transport is exact without obstacles, so pair distances never change.
    pairs = pair_max_distances(trace)
    assert pairs[0, 1] == pytest.approx(0.8, abs=1e-12)
    assert pairs[0, 3] == pytest.approx(math.hypot(0.8, 0.8), abs=1e-12)
    assert max_pairwise_distance(trace) == pytest.approx(math.hypot(0.8, 0.8), abs=1e-12)
    assert pairs[1, 0] == pairs[0, 1]


def test_ape_zero_against_itself():
    trace = run(straight_spec(goal=Vec2(1.0, 0.0)), SWARMPATH)
    assert ape(trace, trace, 0) == pytest.approx(0.0, abs=1e-12)


def test_ape_hand_value():
    # Identical start, constant 0.1 m cross-track offset against a 0.9 m
    # reference: APE = 100 * mean(0.1) / 0.9, modulo the settled tail.
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    a = run(spec, SWARMPATH)
    shifted = straight_spec(start=Vec2(0.0, 0.1), goal=Vec2(1.0, 0.1))
    b = run(shifted, SWARMPATH)
    value = ape(b, a, 0)
    ref = path_length(a.positions[:, 0])
    assert value == pytest.approx(100.0 * 0.1 / ref, rel=1e-6)


def test_ape_rejects_dt_mismatch():
    a = run(straight_spec(goal=Vec2(1.0, 0.0)), SWARMPATH)
    b = run(straight_spec(goal=Vec2(1.0, 0.0), dt=0.02), SWARMPATH)
    with pytest.raises(ValueError):
        ape(a, b, 0)


def test_min_obstacle_clearance():
    spec = one_pole_spec()
    trace = run(spec, SWARMPATH)
    clear = min_obstacle_clearance(trace)
    assert 0.0 < clear < 0.45
    assert min_obstacle_clearance(run(straight_spec(), SWARMPATH)) == math.inf


def test_gate_crossings_fractions():
    pa = Obstacle(Vec2(2.0, 0.6), 0.12, 0.4, 0.3)
    pb = Obstacle(Vec2(2.0, -0.6), 0.12, 0.4, 0.3)
    spec = straight_spec(goal=Vec2(4.0, 0.0), gates=(Gate(pa, pb),), max_steps=2000)
    trace = run(spec, SWARMPATH)
    assert trace.outcome == COMPLETED
    gap = pa.center.dist(pb.center)
    for i in range(trace.n_drones):
        crossings = gate_crossings(trace, i, spec.gates[0])
        assert crossings, f"drone {i} never crossed the gate line"
        for f in crossings:
            assert pa.radius / gap < f < 1.0 - pb.radius / gap


def test_gate_crossings_empty_when_path_stays_clear():
    # Gate far off to the side: nobody crosses its line.
    pa = Obstacle(Vec2(2.0, 5.0), 0.1, 0.4, 0.3)
    pb = Obstacle(Vec2(2.0, 3.0), 0.1, 0.4, 0.3)
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    trace = run(spec, SWARMPATH)
    assert gate_crossings(trace, 0, Gate(pa, pb)) == ()


def test_compare_full_report():
    spec = one_pole_spec()
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    report = compare(sp, base)
    assert report["swarmpath"]["outcome"] == report["conventional_apf"]["outcome"] == COMPLETED
    assert report["time_ratio"] == pytest.approx(
        report["swarmpath"]["completion_time_s"]
        / report["conventional_apf"]["completion_time_s"]
    )
    assert len(report["drones"]) == 4
    assert len(report["pairs"]) == 6
    for row in report["drones"]:
        assert row["swarmpath_path_m"] > 0.0
        assert row["ape_percent"] is not None and row["ape_percent"] >= 0.0
    for pair in report["pairs"]:
        assert pair["ratio"] == pytest.approx(pair["swarmpath_m"] / pair["conventional_apf_m"])


def test_compare_requires_matching_specs():
    sp = run(straight_spec(goal=Vec2(1.0, 0.0)), SWARMPATH)
    other = run(straight_spec(goal=Vec2(2.0, 0.0)), CONVENTIONAL_APF)
    with pytest.raises(ValueError):
        compare(sp, other)


def test_compare_requires_correct_controllers():
    spec = straight_spec(goal=Vec2(1.0, 0.0))
    sp = run(spec, SWARMPATH)
    with pytest.raises(ValueError):
        compare(sp, sp)


def test_compare_drops_ratios_for_unfinished_runs():
    spec = straight_spec(goal=Vec2(50.0, 0.0), max_steps=15)
    report = compare(run(spec, SWARMPATH), run(spec, CONVENTIONAL_APF))
    assert report["swarmpath"]["completion_time_s"] is None
    assert report["time_ratio"] is None


# Reference implementations for the full-precision checks below: one
# np.linalg.norm per drone pair, every obstacle without culling, and one
# segment at a time.  Reports round to 6 digits, so only these comparisons
# see a change in the last bit.
def reference_pair_max_distance(trace, a, b):
    return float(np.max(np.linalg.norm(trace.positions[:, a] - trace.positions[:, b], axis=1)))


def reference_max_pairwise_distance(trace):
    pairs = itertools.combinations(range(trace.n_drones), 2)
    return max((reference_pair_max_distance(trace, a, b) for a, b in pairs), default=0.0)


def reference_min_obstacle_clearance(trace):
    best = math.inf
    for obs in effective_obstacles(trace.spec):
        center = np.array(obs.center.as_tuple())
        dist = np.linalg.norm(trace.positions - center, axis=2) - obs.radius
        best = min(best, float(np.min(dist)))
    return best


def reference_path_length(track):
    rows = track.tolist()
    segments = [math.sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0))
                for (x0, y0), (x1, y1) in zip(rows, rows[1:])]
    return float(np.sum(segments))


@pytest.fixture(scope="module", params=["grid16_forest", "case1_gate-swarmpath",
                                        "case1_gate-apf", "widest_last_pair"])
def recorded(request):
    if request.param == "grid16_forest":
        return run(load_scenario(json.dumps(grid16_forest_doc())), SWARMPATH)
    if request.param == "widest_last_pair":
        # No obstacles, and the last two drones are the farthest apart.
        offsets = (Vec2(0.1, 0.1), Vec2(0.1, -0.1), Vec2(-0.5, 0.5), Vec2(-0.5, -0.5))
        return run(straight_spec(formation_offsets=offsets), SWARMPATH)
    controller = SWARMPATH if request.param.endswith("swarmpath") else CONVENTIONAL_APF
    return run(read_scenario(SCENARIO_DIR / "case1_gate.json"), controller)


def test_metrics_equal_references_to_the_last_bit(recorded):
    trace = recorded
    assert max_pairwise_distance(trace) == reference_max_pairwise_distance(trace)
    pairs = pair_max_distances(trace)
    for a, b in itertools.permutations(range(trace.n_drones), 2):
        assert pairs[a, b] == reference_pair_max_distance(trace, a, b)
    assert all(pairs[i, i] == 0.0 for i in range(trace.n_drones))
    assert min_obstacle_clearance(trace) == reference_min_obstacle_clearance(trace)
    for i in range(trace.n_drones):
        track = trace.positions[:, i]
        assert path_length(track) == reference_path_length(track)


@pytest.mark.parametrize("frames", [1, 2, 3, 129, 1382, 2501])
def test_drone_path_lengths_are_each_drone_path_length_to_the_last_bit(frames):
    # 129 and more segments take np.sum's pairwise blocks; the one pass must
    # add each drone's segments in path_length's order.
    rng = np.random.default_rng(frames)
    positions = np.cumsum(rng.normal(scale=0.05, size=(frames, 5, 2)), axis=0) + (3.0, -1.0)
    trace = SimulationTrace(straight_spec(), CONVENTIONAL_APF, np.arange(frames) * 0.05,
                            positions, None, None, COMPLETED)
    assert drone_path_lengths(trace) == [path_length(trace.positions[:, i]) for i in range(5)]


def test_path_lengths_whose_squares_overflow_are_finite():
    # Drone 2 jumps 1e160 m along x at three steps: those segments' squares
    # overflow, so they take the hypot; every other segment keeps its bits.
    # The post lies 1e160 m from every drone, so each clearance square
    # overflows too, as do drone 2's errors against its track without jumps.
    rng = np.random.default_rng(7)
    steady = np.cumsum(rng.normal(scale=0.05, size=(300, 3, 2)), axis=0)
    positions = steady.copy()
    for step in (10, 150, 299):
        positions[step:, 1, 0] += 1e160
    spec = straight_spec(obstacles=(Obstacle(Vec2(-1e160, 0.0), 0.1, 0.4, 0.3),))
    trace, ref = (SimulationTrace(spec, CONVENTIONAL_APF, np.arange(300) * 0.05,
                                  p, None, None, COMPLETED) for p in (positions, steady))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lengths = drone_path_lengths(trace)
        assert lengths == [path_length(trace.positions[:, i]) for i in range(3)]
        pairs = pair_max_distances(trace)
        widest = max_pairwise_distance(trace)
        clearance = min_obstacle_clearance(trace)
        error = ape(trace, ref, 1)
    for a in (0, 2):
        far = np.max(np.hypot(*(positions[:, 1] - positions[:, a]).T))
        assert pairs[1, a] == pairs[a, 1] == far
    assert widest == pairs.max() and 2e160 < widest < math.inf
    hypot_clearance = np.min(np.hypot(positions[..., 0] + 1e160, positions[..., 1])) - 0.1
    assert clearance == hypot_clearance and 9e159 < clearance < math.inf
    hypot_ape = 100.0 * np.mean(np.hypot(*(positions[:, 1] - steady[:, 1]).T)) / path_length(
        steady[:, 1])
    assert error == hypot_ape and math.isfinite(error)
    assert all(map(math.isfinite, lengths)) and 3e160 <= lengths[1] < 3.1e160
    steps = np.diff(positions, axis=0)
    with np.errstate(over="ignore"):
        segments = np.linalg.norm(steps, axis=2)  # (F - 1, D)
    jumps = [9, 149, 298]
    assert np.flatnonzero(np.isinf(segments)).tolist() == [3 * j + 1 for j in jumps]
    segments[jumps, 1] = np.hypot(steps[jumps, 1, 0], steps[jumps, 1, 1])
    assert lengths == [float(np.sum(np.ascontiguousarray(segments[:, i]))) for i in range(3)]


def test_lengths_whose_squares_underflow_keep_their_digits():
    # Every step and separation is about 1e-300 m, so each square underflows
    # to zero or a subnormal; every length takes the hypot and keeps its digits.
    rng = np.random.default_rng(11)
    positions = np.cumsum(rng.normal(scale=1e-300, size=(200, 3, 2)), axis=0)
    steady = np.cumsum(rng.normal(scale=1e-300, size=(200, 3, 2)), axis=0)
    center = Vec2(-5e-299, 2e-299)
    spec = straight_spec(obstacles=(Obstacle(center, 1e-300, 4e-300, 3e-300),))
    trace, ref = (SimulationTrace(spec, CONVENTIONAL_APF, np.arange(200) * 0.05,
                                  p, None, None, COMPLETED) for p in (positions, steady))

    def hypot_path(track):
        return float(np.sum(np.hypot(*np.diff(track, axis=0).T)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lengths = [path_length(positions[:, i]) for i in range(3)]
        pairs = pair_max_distances(trace)
        clearance = min_obstacle_clearance(trace)
        error = ape(trace, ref, 1)
    assert lengths == [hypot_path(positions[:, i]) for i in range(3)]
    assert all(1e-299 < v < 1e-296 for v in lengths)
    for a, b in itertools.combinations(range(3), 2):
        far = np.max(np.hypot(*(positions[:, b] - positions[:, a]).T))
        assert pairs[a, b] == pairs[b, a] == far > 0.0
    hypot_clearance = np.min(np.hypot(positions[..., 0] - center.x,
                                      positions[..., 1] - center.y)) - 1e-300
    assert clearance == hypot_clearance > 0.0
    hypot_ape = 100.0 * np.mean(np.hypot(*(positions[:, 1] - steady[:, 1]).T)) / hypot_path(
        steady[:, 1])
    assert error == hypot_ape and 0.0 < error < math.inf


@pytest.mark.parametrize("controller", CONTROLLERS)
@pytest.mark.parametrize("name", ["case1_gate.json", "case2_forest.json"])
def test_drone_path_lengths_of_the_shipped_runs(name, controller):
    trace = run(read_scenario(SCENARIO_DIR / name), controller)
    lengths = drone_path_lengths(trace)
    assert lengths == [path_length(trace.positions[:, i]) for i in range(trace.n_drones)]
    assert all(type(v) is float for v in lengths)


def test_ape_whose_mean_and_percentage_overflow_is_finite():
    # Errors near 1e308 sum past the float range, and 100 times their mean
    # overflows too; the reference drone travels 1e7 m.
    spec = straight_spec()
    ref = np.zeros((5, 1, 2))
    ref[1:, 0, 0] = 1e7
    far = np.array([[1.0e308, 0.0], [1.2e308, 0.0], [1.5e308, 0.0], [1.1e308, 1.1e308],
                    [1.7e308, -1e300]])[:, None]
    trace, base = (SimulationTrace(spec, CONVENTIONAL_APF, np.arange(5) * 0.05, p,
                                   None, None, COMPLETED) for p in (far, ref))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ape(trace, base, 0)
    errors = [Fraction(x) - Fraction(r) for x, r in zip(far[:, 0, 0], ref[:, 0, 0])]
    errors[3] = Fraction(math.hypot(1.1e308 - 1e7, 1.1e308))
    errors[4] = Fraction(math.hypot(1.7e308 - 1e7, 1e300))
    exact = 100 * sum(errors) / len(errors) / Fraction(1e7)
    assert math.isfinite(value) and abs(Fraction(value) / exact - 1) < 1e-12


def test_a_finite_ape_keeps_its_bits():
    # Where no square overflows, APE is 100 * np.mean of np.linalg.norm's
    # errors / reference length, to the last bit.
    spec = one_pole_spec()
    sp, base = run(spec, SWARMPATH), run(spec, CONVENTIONAL_APF)
    for i in range(sp.n_drones):
        frames = max(sp.n_frames, base.n_frames)
        pa, pb = (np.pad(t.positions[:, i], ((0, frames - t.n_frames), (0, 0)), mode="edge")
                  for t in (sp, base))
        mean_err = float(np.mean(np.linalg.norm(pa - pb, axis=1)))
        assert ape(sp, base, i) == 100.0 * mean_err / path_length(pb)
