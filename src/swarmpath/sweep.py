"""Impedance parameter sweeps: rerun one scenario across m, d, or k values.

A sweep spec is a small JSON document:

    {
      "parameter": "d",
      "values": [12.5, 12.6, 12.7, 12.8],
      "scenario": "case1_gate.json"
    }

scenario is either a path (resolved against the sweep file's directory) or an
inline scenario object.  Each run reports per-drone path lengths, and values
within 0.5% of the critical damping of the resulting (m, d, k) triple are
flagged, since behavior changes character on either side of that point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .world import (ScenarioParseError, ScenarioSpec, ScenarioValidationError, _number,
                    load_scenario, validate_spec)
from .impedance import critical_damping
from .simulator import SWARMPATH, run
from .metrics import drone_path_length
from .traceio import sig6

SWEEPABLE = ("m", "d", "k")
CRITICAL_REL_TOL = 0.005  # |d - 2*sqrt(m*k)| within 0.5% of critical counts as critical


@dataclass(frozen=True)
class SweepSpec:
    """One parameter, the values to try, and the scenario to rerun.

    Every point is validated on construction, before any run, so a bad value
    fails the whole sweep with ScenarioValidationError however it was built.
    """

    parameter: str
    values: tuple[float, ...]
    scenario: ScenarioSpec

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ScenarioValidationError(
                f"parameter must be one of {SWEEPABLE}, got {self.parameter!r}")
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioParseError("sweep spec must be a JSON object")
    unknown = set(doc) - {"parameter", "values", "scenario"}
    if unknown:
        raise ScenarioParseError(f"unknown sweep keys: {sorted(unknown)}")
    parameter = doc.get("parameter")
    if parameter not in SWEEPABLE:
        raise ScenarioParseError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    raw_values = doc.get("values")
    if not isinstance(raw_values, list) or not raw_values:
        raise ScenarioParseError("values must be a non-empty array of numbers")
    values = tuple(_number(v, f"values[{i}]") for i, v in enumerate(raw_values))
    raw_scenario = doc.get("scenario")
    if isinstance(raw_scenario, str):
        path = Path(raw_scenario)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from None
        scenario = load_scenario(text)
    elif isinstance(raw_scenario, dict):
        scenario = load_scenario(json.dumps(raw_scenario))
    else:
        raise ScenarioParseError("scenario must be a path string or an inline object")
    return SweepSpec(parameter=parameter, values=values, scenario=scenario)


def read_sweep(path) -> SweepSpec:
    path = Path(path)
    return load_sweep(path.read_text(encoding="utf-8"), base_dir=path.parent)


def sweep_point(spec: ScenarioSpec, parameter: str, value: float) -> ScenarioSpec:
    """Scenario with one impedance coefficient replaced."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
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
