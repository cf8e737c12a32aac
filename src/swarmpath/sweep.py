"""Impedance parameter sweeps: rerun one scenario across m, d, or k values.

A sweep spec is a small JSON document:

    {
      "parameter": "d",
      "values": [12.5, 12.6, 12.7, 12.8],
      "scenario": "case1_gate.json"
    }

Its keys are the SweepSpec fields, all required: parameter is m, d or k,
values a non-empty array of numbers, and scenario a path (relative to the
sweep file) or an inline scenario object.  Every point is validated before any
run, and an error names its key, such as scenario.start or values[1].

Each point is the dict that sweep.json holds under "runs", at full precision:
value, outcome, critical, note and drone_path_lengths_m.  Values within 0.5%
of the critical damping of the resulting (m, d, k) triple are flagged
critical, since behavior changes character on either side of that point.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, get_args

from .world import (ScenarioSpec, ScenarioValidationError, _decode, _parse_json, _read,
                    validate_spec)
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import load_scenario  # noqa: F401
from .impedance import critical_damping
from .simulator import SWARMPATH, run
from .topology import LeaderTrack
from .metrics import drone_path_lengths
from .traceio import sig6

Parameter = Literal["m", "d", "k"]
SWEEPABLE = get_args(Parameter)
CRITICAL_REL_TOL = 0.005  # |d - 2*sqrt(m*k)| within 0.5% of critical counts as critical


@dataclass(frozen=True)
class SweepSpec:
    """One parameter, the values to try, and the scenario to rerun.

    Every point is validated on construction, before any run, so a bad value
    fails the whole sweep with ScenarioValidationError however it was built.
    """

    parameter: Parameter
    values: tuple[float, ...]
    scenario: ScenarioSpec

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ScenarioValidationError(
                f"parameter must be one of {SWEEPABLE}, got {self.parameter!r}")
        if not self.values:
            raise ScenarioValidationError("values: at least one value is required")
        validate_spec(self.scenario, "scenario")
        for i, value in enumerate(self.values):
            validate_spec(sweep_point(self.scenario, self.parameter, value), f"values[{i}]")


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    runs: tuple[dict, ...]  # sweep.json's "runs" entries, unrounded


def load_sweep(text: str, base_dir: Path | None = None) -> SweepSpec:
    """Parse a sweep spec document; see the module docstring for the shape."""
    doc = _parse_json(text)
    scenario = doc.get("scenario") if isinstance(doc, dict) else None
    if isinstance(scenario, str):  # a path, relative to base_dir unless absolute
        doc["scenario"] = _parse_json(_read(Path(base_dir or "", scenario), "scenario"))
    return _decode(SweepSpec, doc, None)


def read_sweep(path) -> SweepSpec:
    path = Path(path)
    return load_sweep(_read(path, "sweep"), base_dir=path.parent)


def sweep_point(spec: ScenarioSpec, parameter: Parameter, value: float) -> ScenarioSpec:
    """Scenario with one impedance coefficient replaced."""
    impedance = replace(spec.impedance, **{parameter: value})
    return replace(spec, impedance=impedance)


def run_sweep(sweep: SweepSpec) -> SweepResult:
    """Run the adaptive-link controller once per value.

    m, d and k reach neither the leader nor the obstacles, so every point
    reads one LeaderTrack, with the obstacle index it carries.  Nor do they
    reach where a follower at rest on its slot rides, or its speed there, so
    the points also share the track's ride tables: the first point builds
    each one, searched once over the track's rows, and the later ones only
    test their goals along it.
    """
    track = LeaderTrack(sweep.scenario)
    runs = []
    for value in sweep.values:
        spec = sweep_point(sweep.scenario, sweep.parameter, value)
        imp = spec.impedance
        crit = critical_damping(imp.m, imp.k)
        is_critical = abs(imp.d - crit) <= CRITICAL_REL_TOL * crit
        note = f"critically damped (2*sqrt(m*k)={crit:.3f})" if is_critical else None
        trace = run(spec, SWARMPATH, track)
        runs.append({"value": value, "outcome": trace.outcome, "critical": is_critical,
                     "note": note, "drone_path_lengths_m": drone_path_lengths(trace)})
    return SweepResult(parameter=sweep.parameter, runs=tuple(runs))


def render_sweep_json(result: SweepResult) -> str:
    runs = [{**r, "drone_path_lengths_m": [sig6(v) for v in r["drone_path_lengths_m"]]}
            for r in result.runs]
    return json.dumps({"parameter": result.parameter, "runs": runs}, indent=2) + "\n"


def value_label(value: float) -> str:
    """value as :g prints it when that reads back as value, else its repr.

    So two distinct swept values never share a label.
    """
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def render_sweep_csv(result: SweepResult) -> str:
    """Table with one row per drone and one column per swept value."""
    n_drones = len(result.runs[0]["drone_path_lengths_m"])
    header = ["drone"] + [f"{result.parameter}={value_label(r['value'])}" for r in result.runs]
    lines = [",".join(header)]
    for i in range(n_drones):
        row = [f"drone{i + 1}"] + [f"{r['drone_path_lengths_m'][i]:.6g}" for r in result.runs]
        lines.append(",".join(row))
    outcome_row = ["outcome"] + [r["outcome"] for r in result.runs]
    lines.append(",".join(outcome_row))
    return "\n".join(lines) + "\n"
