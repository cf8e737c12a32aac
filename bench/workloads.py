"""The benchmark's workloads and the checks on their outputs.

Each workload is a fixed list of `swarmpath-sim` invocations.  The checks read
the output files with this module's own parsers, not with the program's, and
return a list of problems (empty when the outputs are correct).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# dense_forest: case2 walls and gains, a 4x4 grid formation, and decoy posts
# placed where no drone or the leader can come within their r_apf.
DENSE_DECOYS = 120
DENSE_GRID = (-0.6, -0.2, 0.2, 0.6)   # formation offsets, m (spacing 0.4)
DECOY_MIN_ABS_Y = 5.5                 # m
DECOY_MAX_ABS_Y = 8.0                 # m
DECOY_X_RANGE = (-1.0, 14.0)          # m, covers start (0) to goal (12.6)

FOREST_MAX_TIME_RATIO = 0.85
FOREST_MAX_PAIRWISE_RATIO = 0.75


@dataclass
class Workload:
    name: str
    invocations: list[tuple[str, list[str]]]  # (label, CLI arguments without -o)
    inputs: list[str]                         # "kind:path" loaded by the set-up probe
    check: Callable[[Path], list[str]]        # problems in one iteration's outputs
    reference_digest: str | None = None       # dense_forest: decoy-free trace.csv


def read_tracks(path: Path) -> tuple[np.ndarray | None, np.ndarray]:
    """(leader (F, 2) or None, drones (F, D, 2)) from a trace CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n_drones = (len(lines[0].split(",")) - 3) // 3
    rows = [line.split(",") for line in lines[1:]]
    leader = None
    if rows[0][1]:
        leader = np.array([[float(r[1]), float(r[2])] for r in rows])
    drones = np.array([[[float(r[3 + 3 * d]), float(r[4 + 3 * d])]
                        for d in range(n_drones)] for r in rows])
    return leader, drones


def all_obstacles(doc: dict) -> list[dict]:
    poles = [g[k] for g in doc.get("gates", []) for k in ("pole_a", "pole_b")]
    return doc.get("obstacles", []) + poles


def min_surface_distance(points: np.ndarray, obstacle: dict) -> float:
    center = np.asarray(obstacle["center"], dtype=float)
    return float(np.min(np.linalg.norm(points - center, axis=1))) - obstacle["radius"]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _guarded(check: Callable[[Path], list[str]]) -> Callable[[Path], list[str]]:
    """A missing or malformed output file is a problem, not a crash."""
    def guarded(out: Path) -> list[str]:
        try:
            return check(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return guarded


# --- gate_sweep --------------------------------------------------------------

def gate_sweep(seed: int, workdir: Path) -> Workload:
    """sweep_k then sweep_d: nine swarmpath runs of the four-post gate."""
    del seed, workdir  # fixed inputs
    labels = ("sweep_k", "sweep_d")

    def check(out: Path) -> list[str]:
        problems = []
        for label in labels:
            doc = _read_json(out / label / "sweep.json")
            spec = _read_json(SCENARIOS / f"{label}.json")
            outcomes = [r["outcome"] for r in doc["runs"]]
            if len(outcomes) != len(spec["values"]):
                problems.append(f"{label}: {len(outcomes)} points, expected {len(spec['values'])}")
            if any(o != "completed" for o in outcomes):
                problems.append(f"{label}: outcomes {outcomes}")
            (out / label / "sweep.csv").read_text(encoding="utf-8")
        return problems

    return Workload(
        name="gate_sweep",
        invocations=[(label, ["sweep", str(SCENARIOS / f"{label}.json")]) for label in labels],
        inputs=[f"sweep:{SCENARIOS / f'{label}.json'}" for label in labels],
        check=_guarded(check),
    )


# --- forest_compare ----------------------------------------------------------

def forest_compare(seed: int, workdir: Path) -> Workload:
    """compare case2_forest: both controllers, comparison report and SVG."""
    del seed, workdir  # fixed inputs
    scenario = SCENARIOS / "case2_forest.json"
    obstacles = all_obstacles(_read_json(scenario))

    def check(out: Path) -> list[str]:
        problems = []
        rep = _read_json(out / "compare" / "comparison.json")
        for side in ("swarmpath", "conventional_apf"):
            if rep[side]["outcome"] != "completed":
                problems.append(f"{side} outcome {rep[side]['outcome']}")
        ratio = rep["time_ratio"]
        if ratio is None or not ratio <= FOREST_MAX_TIME_RATIO:
            problems.append(f"time_ratio {ratio} (need <= {FOREST_MAX_TIME_RATIO})")
        ratios = [("all", rep["max_pairwise_distance_m"]["ratio"])]
        # criterion 4's pairs: drone 2 against each other drone
        ratios += [(p["drones"], p["ratio"]) for p in rep["pairs"] if 2 in p["drones"]]
        for pair, ratio in ratios:
            if ratio is None or not ratio <= FOREST_MAX_PAIRWISE_RATIO:
                problems.append(f"pairwise ratio {pair} {ratio} "
                                f"(need <= {FOREST_MAX_PAIRWISE_RATIO})")
        for name in ("trace_swarmpath.csv", "trace_apf.csv"):
            _, drones = read_tracks(out / "compare" / name)
            points = drones.reshape(-1, 2)
            clearance = min(min_surface_distance(points, o) for o in obstacles)
            if not clearance > 0.0:
                problems.append(f"{name}: clearance {clearance} (need > 0)")
        (out / "compare" / "compare.svg").read_text(encoding="utf-8")
        return problems

    return Workload(
        name="forest_compare",
        invocations=[("compare", ["compare", str(scenario)])],
        inputs=[f"scenario:{scenario}"],
        check=_guarded(check),
    )


# --- dense_forest ------------------------------------------------------------

def dense_forest_doc(seed: int | None) -> dict:
    """The dense_forest scenario for a seed; None gives the decoy-free run.

    A pure function of the seed: the decoys come from random.Random(seed).
    """
    doc = _read_json(SCENARIOS / "case2_forest.json")
    doc["formation_offsets"] = [[x, y] for x in DENSE_GRID for y in DENSE_GRID]
    if seed is None:
        return doc
    rng = random.Random(seed)
    post = doc["obstacles"][0]
    decoys = []
    for _ in range(DENSE_DECOYS):
        x = rng.uniform(*DECOY_X_RANGE)
        y = rng.uniform(DECOY_MIN_ABS_Y, DECOY_MAX_ABS_Y) * rng.choice((-1.0, 1.0))
        decoys.append(dict(post, center=[x, y]))
    doc["obstacles"] = doc["obstacles"] + decoys
    return doc


def dense_forest(seed: int, workdir: Path, reference_digest: str) -> Workload:
    """run with swarmpath on the seeded dense forest.

    reference_digest is the sha256 of trace.csv from the decoy-free run; the
    decoys never act on the swarm, so every seed must reproduce it.
    """
    doc = dense_forest_doc(seed)
    n_real = len(dense_forest_doc(None)["obstacles"])
    scenario = workdir / f"dense_forest_seed{seed}.json"
    scenario.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    def check(out: Path) -> list[str]:
        problems = []
        report = _read_json(out / "run" / "metrics.json")
        if report["outcome"] != "completed":
            problems.append(f"outcome {report['outcome']}")
        trace = out / "run" / "trace.csv"
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        if digest != reference_digest:
            problems.append(f"trace.csv {digest[:12]} differs from the decoy-free "
                            f"run {reference_digest[:12]}")
        leader, drones = read_tracks(trace)
        points = np.concatenate([drones.reshape(-1, 2), leader])
        for i, decoy in enumerate(doc["obstacles"][n_real:], start=n_real):
            gap = min_surface_distance(points, decoy)
            if not gap > decoy["r_apf"]:
                problems.append(f"decoy obstacles[{i}] came within r_apf ({gap:.3f} m)")
        (out / "run" / "trace.svg").read_text(encoding="utf-8")
        return problems

    return Workload(
        name="dense_forest",
        invocations=[("run", ["run", str(scenario)])],
        inputs=[f"scenario:{scenario}"],
        check=_guarded(check),
        reference_digest=reference_digest,
    )


def decoy_free_scenario(workdir: Path) -> Path:
    path = workdir / "dense_forest_nodecoys.json"
    path.write_text(json.dumps(dense_forest_doc(None), indent=1) + "\n", encoding="utf-8")
    return path


NAMES = ("gate_sweep", "forest_compare", "dense_forest")
