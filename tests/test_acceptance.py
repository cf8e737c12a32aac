"""Acceptance checks for the shipped scenarios and tooling.

One test per criterion, each asserting at its stated tolerance and printing
a single summary line.  The criteria pin end-to-end behavior: link damping,
integrator fidelity, the two shipped scenarios, field properties, sweep
direction, and byte-stable outputs.
"""

import filecmp
import math

import numpy as np
import pytest

from swarmpath.apf import repulsion_force
from swarmpath.cli import main
from swarmpath.impedance import critical_damping
from swarmpath.metrics import (
    completion_time,
    drone_path_length,
    gate_crossings,
    min_obstacle_clearance,
    pair_max_distance,
)
from swarmpath.selfcheck import check_integrator, check_no_overshoot
from swarmpath.simulator import COMPLETED, CONVENTIONAL_APF, SWARMPATH, run
from swarmpath.sweep import read_sweep, run_sweep
from swarmpath.traceio import mode_cell
from swarmpath.world import Obstacle, ScenarioSpec, Vec2, read_scenario
from conftest import SCENARIO_DIR


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture(scope="module")
def gate_spec():
    return read_scenario(SCENARIO_DIR / "case1_gate.json")


@pytest.fixture(scope="module")
def forest_spec():
    return read_scenario(SCENARIO_DIR / "case2_forest.json")


@pytest.fixture(scope="module")
def gate_sp(gate_spec):
    return run(gate_spec, SWARMPATH)


@pytest.fixture(scope="module")
def gate_base(gate_spec):
    return run(gate_spec, CONVENTIONAL_APF)


@pytest.fixture(scope="module")
def forest_sp(forest_spec):
    return run(forest_spec, SWARMPATH)


@pytest.fixture(scope="module")
def forest_base(forest_spec):
    return run(forest_spec, CONVENTIONAL_APF)


def test_c01_critical_damping_constant():
    value = critical_damping(1.9, 20.88)
    report(1, abs(value - 12.597) <= 0.001,
           f"critical_damping(1.9, 20.88) = {value:.6f}, expected 12.597 +/- 0.001")


def test_c02_integrator_matches_analytic_response():
    integ = check_integrator(dt=0.01)
    overshoot = check_no_overshoot(dt=0.01)
    ok = integ.max_error < 1e-3 and overshoot.max_error < 1e-6
    report(2, ok,
           f"release-response max error {integ.max_error:.6e} (tolerance 1e-3), "
           f"overshoot {overshoot.max_error:.3e} (tolerance 1e-6)")


def test_c03_forest_completion_time_advantage(forest_sp, forest_base):
    t_sp = completion_time(forest_sp)
    t_base = completion_time(forest_base)
    ok = (forest_sp.outcome == COMPLETED and forest_base.outcome == COMPLETED
          and t_sp <= 0.85 * t_base)
    report(3, ok,
           f"forest completion {t_sp} s vs baseline {t_base} s "
           f"(ratio {t_sp / t_base:.3f}, need <= 0.85)")


def test_c04_forest_formation_stays_tighter(forest_sp, forest_base):
    ratios = {}
    for a, b in ((1, 0), (1, 2), (1, 3)):  # drone labels (2,1), (2,3), (2,4)
        sp = pair_max_distance(forest_sp, a, b)
        base = pair_max_distance(forest_base, a, b)
        ratios[(a + 1, b + 1)] = sp / base
    ok = all(r <= 0.75 for r in ratios.values())
    detail = ", ".join(f"({a},{b}): {r:.3f}" for (a, b), r in ratios.items())
    report(4, ok, f"max pairwise distance ratios {detail} (each need <= 0.75)")


def test_c05_no_contact_in_either_scenario(gate_sp, forest_sp):
    gate_clear = min_obstacle_clearance(gate_sp)
    forest_clear = min_obstacle_clearance(forest_sp)
    ok = gate_clear > 0.0 and forest_clear > 0.0
    report(5, ok,
           f"min surface clearance: gate {gate_clear:.4f} m, forest {forest_clear:.4f} m "
           "(need > 0)")


def test_c06_every_drone_threads_the_gate(gate_spec, gate_sp):
    gate = gate_spec.gates[0]
    gap = gate.pole_a.center.dist(gate.pole_b.center)
    lo = gate.pole_a.radius / gap
    hi = 1.0 - gate.pole_b.radius / gap
    worst: list[str] = []
    for i in range(gate_sp.n_drones):
        fractions = gate_crossings(gate_sp, i, gate)
        if not fractions:
            worst.append(f"drone {i + 1} never crossed")
        for f in fractions:
            if not (lo < f < hi):
                worst.append(f"drone {i + 1} crossed at fraction {f:.3f}")
    report(6, not worst,
           f"gate crossings inside ({lo:.3f}, {hi:.3f}): "
           + (", ".join(worst) if worst else "all drones"))


def _open_episodes(trace) -> list[str]:
    bad = []
    for i in range(trace.n_drones):
        modes = trace.modes[:, i]
        if np.any(modes >= 0) and modes[-1] >= 0:
            bad.append(f"drone {i + 1} ends {mode_cell(modes[-1])}")
    return bad


def test_c07_every_link_episode_releases(gate_sp, forest_sp):
    bad = _open_episodes(gate_sp) + _open_episodes(forest_sp)
    report(7, not bad,
           "all obstacle links released before the end"
           + ("" if not bad else f" except: {', '.join(bad)}"))


def test_c08_repulsion_cutoff_exact_and_continuous():
    ob = Obstacle(Vec2(0.0, 0.0), 0.5, 1.0, 0.8).as_tuple()  # cutoff at range 1.5
    exact_zero = all(
        repulsion_force(r, 0.0, ob, 2.0) == (0.0, 0.0)
        for r in (1.5 + 1e-12, 1.6, 3.0, 100.0)
    )
    boundary = math.hypot(*repulsion_force(1.5 - 1e-9, 0.0, ob, 2.0))
    ok = exact_zero and boundary < 1e-6
    report(8, ok,
           f"repulsion outside cutoff exactly zero: {exact_zero}; "
           f"magnitude just inside boundary {boundary:.3e} (need < 1e-6)")


def test_c09_free_space_matches_baseline():
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(5.0, 0.0), max_steps=1500)
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    worst_gap = 0.0
    worst_len = 0.0
    for i in range(sp.n_drones):
        p_sp = Vec2(*sp.positions[-1, i])
        p_base = Vec2(*base.positions[-1, i])
        worst_gap = max(worst_gap, p_sp.dist(p_base))
        straight = spec.start.dist(spec.goal)
        for trace in (sp, base):
            worst_len = max(worst_len, abs(drone_path_length(trace, i) - straight) / straight)
    ok = (sp.outcome == base.outcome == COMPLETED
          and worst_gap <= 1e-3 and worst_len <= 0.05)
    report(9, ok,
           f"free space: final-position gap {worst_gap:.2e} m (need <= 1e-3), "
           f"path length within {worst_len:.2%} of straight (need <= 5%)")


def test_c10_sweeps_flag_damping_and_order_stiffness():
    d_result = run_sweep(read_sweep(SCENARIO_DIR / "sweep_d.json"))
    flags = [r.critical for r in d_result.runs]
    d_ok = flags == [v == 12.6 for v in (12.5, 12.6, 12.7, 12.8)]

    k_result = run_sweep(read_sweep(SCENARIO_DIR / "sweep_k.json"))
    k_ok = all(r.outcome == COMPLETED for r in k_result.runs)
    n_drones = len(k_result.runs[0].drone_path_lengths)
    for i in range(n_drones):
        lengths = [r.drone_path_lengths[i] for r in k_result.runs]
        k_ok = k_ok and all(b >= a for a, b in zip(lengths, lengths[1:]))
    report(10, d_ok and k_ok,
           f"d-sweep critical flags {flags} (only 12.6); "
           f"k-sweep per-drone path lengths non-decreasing: {k_ok}")


def test_c11_outputs_are_reproducible(tmp_path):
    gate = str(SCENARIO_DIR / "case1_gate.json")
    sweep = str(SCENARIO_DIR / "sweep_d.json")
    jobs = (
        (["run", gate], ("trace.csv", "metrics.json", "trace.svg")),
        (["compare", gate],
         ("trace_swarmpath.csv", "trace_apf.csv", "comparison.json", "compare.svg")),
        (["sweep", sweep], ("sweep.json", "sweep.csv")),
    )
    mismatched = []
    for argv, names in jobs:
        dirs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{argv[0]}-{attempt}"
            assert main(argv + ["--output-dir", str(out)]) == 0
            dirs.append(out)
        for name in names:
            if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
                mismatched.append(f"{argv[0]}/{name}")
    report(11, not mismatched,
           "repeated run/compare/sweep outputs byte-identical"
           + ("" if not mismatched else f"; differ: {', '.join(mismatched)}"))
