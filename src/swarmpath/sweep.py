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
run, and an error names its key, such as scenario.start or values[1].  Each
run reports per-drone path lengths, and values within 0.5% of the critical
damping of the resulting (m, d, k) triple are flagged, since behavior changes
character on either side of that point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, get_args

from .world import (ScenarioSpec, ScenarioValidationError, _decode, _parse_json, _read,
                    read_scenario, validate_spec)
# Unused here, but bench/bench.py's traced mode rebinds this module name.
from .world import load_scenario  # noqa: F401
from .impedance import critical_damping
from .simulator import SWARMPATH, run
from .metrics import drone_path_length
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
        validate_spec(self.scenario)
        for value in self.values:
            validate_spec(sweep_point(self.scenario, self.parameter, value))


@dataclass(frozen=True)
class SweepRun:
    """Result of one sweep point."""

    value: float
    outcome: str
    critical: bool
    note: str | None
    drone_path_lengths: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    runs: tuple[SweepRun, ...]


def load_sweep(text: str, base_dir: Path | None = None) -> SweepSpec:
    """Parse a sweep spec document; see the module docstring for the shape."""
    doc = _parse_json(text)
    scenario = doc.get("scenario") if isinstance(doc, dict) else None
    if isinstance(scenario, str):  # a path, relative to base_dir unless absolute
        doc["scenario"] = read_scenario(Path(base_dir or "", scenario))
    return _decode(SweepSpec, doc, None)


def read_sweep(path) -> SweepSpec:
    path = Path(path)
    return load_sweep(_read(path, "sweep"), base_dir=path.parent)


def sweep_point(spec: ScenarioSpec, parameter: Parameter, value: float) -> ScenarioSpec:
    """Scenario with one impedance coefficient replaced."""
    impedance = replace(spec.impedance, **{parameter: value})
    return replace(spec, impedance=impedance)


def run_sweep(sweep: SweepSpec) -> SweepResult:
    """Run the adaptive-link controller once per value."""
    runs = []
    for value in sweep.values:
        spec = sweep_point(sweep.scenario, sweep.parameter, value)
        imp = spec.impedance
        crit = critical_damping(imp.m, imp.k)
        is_critical = abs(imp.d - crit) <= CRITICAL_REL_TOL * crit
        note = f"critically damped (2*sqrt(m*k)={crit:.3f})" if is_critical else None
        trace = run(spec, SWARMPATH)
        lengths = tuple(drone_path_length(trace, i) for i in range(trace.n_drones))
        runs.append(SweepRun(
            value=value,
            outcome=trace.outcome,
            critical=is_critical,
            note=note,
            drone_path_lengths=lengths,
        ))
    return SweepResult(parameter=sweep.parameter, runs=tuple(runs))


def render_sweep_json(result: SweepResult) -> str:
    doc = {
        "parameter": result.parameter,
        "runs": [
            {
                "value": r.value,
                "outcome": r.outcome,
                "critical": r.critical,
                "note": r.note,
                "drone_path_lengths_m": [sig6(v) for v in r.drone_path_lengths],
            }
            for r in result.runs
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def render_sweep_csv(result: SweepResult) -> str:
    """Table with one row per drone and one column per swept value."""
    n_drones = len(result.runs[0].drone_path_lengths)
    header = ["drone"] + [f"{result.parameter}={r.value:g}" for r in result.runs]
    lines = [",".join(header)]
    for i in range(n_drones):
        row = [f"drone{i + 1}"] + [f"{r.drone_path_lengths[i]:.6g}" for r in result.runs]
        lines.append(",".join(row))
    outcome_row = ["outcome"] + [r.outcome for r in result.runs]
    lines.append(",".join(outcome_row))
    return "\n".join(lines) + "\n"
