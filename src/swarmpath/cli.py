"""Command line front end.

    swarmpath-sim run <scenario.json> [--controller swarmpath|apf] [-o DIR]
    swarmpath-sim compare <scenario.json> [-o DIR]
    swarmpath-sim sweep <sweep.json> [-o DIR]
    swarmpath-sim validate

Exit codes: 0 success, 1 bad input, failed validation or a drone or the
leader on an obstacle center, 2 the simulation ran but did not complete
(stall or step limit).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .world import ScenarioError, read_scenario, validate_spec
from .apf import SingularityError
from .simulator import COMPLETED, CONVENTIONAL_APF, SWARMPATH, run
from . import metrics, plotsvg, selfcheck, sweep, traceio

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCOMPLETE = 2

_CONTROLLER_FLAGS = {"swarmpath": SWARMPATH, "apf": CONVENTIONAL_APF}


def _output_dir(arg: str | None) -> Path:
    path = Path(arg if arg is not None else os.environ.get("SWARMPATH_OUT", "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    """Write one output file as UTF-8 with LF line ends, the same bytes on every platform."""
    path.write_text(text, encoding="utf-8", newline="\n")


def _load_spec(path: str, dt: float | None, max_steps: int | None):
    spec = read_scenario(path)
    overrides = {name: value for name, value in (("dt", dt), ("max_steps", max_steps))
                 if value is not None}
    if overrides:  # they bypass the loader's checks, so validate once more
        spec = dataclasses.replace(spec, **overrides)
        validate_spec(spec)
    return spec


def cmd_run(args) -> int:
    spec = _load_spec(args.scenario, args.dt, args.max_steps)
    controller = _CONTROLLER_FLAGS[args.controller]
    trace = run(spec, controller)
    out = _output_dir(args.output_dir)
    _write(out / "trace.csv", traceio.render_trace_csv(trace))
    _write(out / "metrics.json", traceio.render_metrics_json(trace))
    _write(out / "trace.svg", plotsvg.render_trace_svg(trace))
    print(f"{controller}: {trace.outcome} after {trace.n_frames - 1} steps "
          f"(t={trace.t[-1]:.6g} s)")
    print(f"wrote {out / 'trace.csv'}, {out / 'metrics.json'}, {out / 'trace.svg'}")
    return EXIT_OK if trace.outcome == COMPLETED else EXIT_INCOMPLETE


def cmd_compare(args) -> int:
    spec = _load_spec(args.scenario, None, None)
    sp = run(spec, SWARMPATH)
    base = run(spec, CONVENTIONAL_APF)
    report = metrics.compare(sp, base)
    out = _output_dir(args.output_dir)
    _write(out / "trace_swarmpath.csv", traceio.render_trace_csv(sp))
    _write(out / "trace_apf.csv", traceio.render_trace_csv(base))
    _write(out / "comparison.json", traceio.render_comparison_json(report))
    _write(out / "compare.svg", plotsvg.render_compare_svg(sp, base))
    sp_outcome = report["swarmpath"]["outcome"]
    base_outcome = report["conventional_apf"]["outcome"]
    time_ratio, pairwise_ratio = report["time_ratio"], report["max_pairwise_distance_m"]["ratio"]
    print(f"swarmpath: {sp_outcome}, conventional-apf: {base_outcome}")
    if time_ratio is not None:
        print(f"completion time ratio (swarmpath / conventional): {time_ratio:.6g}")
    if pairwise_ratio is not None:
        print(f"max pairwise distance ratio: {pairwise_ratio:.6g}")
    print(f"wrote reports to {out}")
    both_done = sp_outcome == COMPLETED and base_outcome == COMPLETED
    return EXIT_OK if both_done else EXIT_INCOMPLETE


def cmd_sweep(args) -> int:
    spec = sweep.read_sweep(args.sweep)
    result = sweep.run_sweep(spec)
    out = _output_dir(args.output_dir)
    _write(out / "sweep.json", sweep.render_sweep_json(result))
    _write(out / "sweep.csv", sweep.render_sweep_csv(result))
    for point in result.runs:
        note = f"  [{point['note']}]" if point["note"] else ""
        print(f"{result.parameter}={sweep.value_label(point['value'])}: {point['outcome']}{note}")
    print(f"wrote {out / 'sweep.json'}, {out / 'sweep.csv'}")
    all_done = all(p["outcome"] == COMPLETED for p in result.runs)
    return EXIT_OK if all_done else EXIT_INCOMPLETE


def cmd_validate(args) -> int:
    results = selfcheck.run_selfcheck()
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: max_error={check.max_error:.6e} "
              f"tolerance={check.tolerance:.6e} {status}")
    return EXIT_OK if all(c.passed for c in results) else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmpath-sim",
        description="Deterministic 2D swarm path planning simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario with one controller")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--controller", choices=sorted(_CONTROLLER_FLAGS),
                       default="swarmpath")
    p_run.add_argument("-o", "--output-dir", default=None,
                       help="output directory (default $SWARMPATH_OUT or ./out)")
    p_run.add_argument("--dt", type=float, default=None, help="override step size, s")
    p_run.add_argument("--max-steps", type=int, default=None, help="override step limit")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both controllers and report ratios")
    p_cmp.add_argument("scenario", help="scenario JSON file")
    p_cmp.add_argument("-o", "--output-dir", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over the values of one float field")
    p_sweep.add_argument("sweep", help="sweep spec JSON file")
    p_sweep.add_argument("-o", "--output-dir", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run built-in numeric self checks")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SingularityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
