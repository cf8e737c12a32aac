"""swarmpath benchmark: closed-loop runs of the public CLI entry point.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/bench.py --workload all [--seed N] [--seconds S]

One process, one thread, one client: `swarmpath.cli.main` is called in
process, and the next iteration starts only when the previous one has ended.
The first iteration is a warm-up and is not measured.  Workloads (see
bench/workloads.py): gate_sweep, forest_compare, dense_forest.

--trace 0 measures the end-to-end metrics with no instrumentation.  --trace 1
first measures untraced iterations for half the time, then wraps the program's
layer functions (tracer.py) for the other half and reports per-layer metrics,
the spans' self times and the tracing overhead.  Every iteration's outputs are
checked; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every check passed.  `--workload all` runs every workload in both modes and
prints one summary.

Reported times are scaled to a reference CPU speed, measured by a fixed
pure-Python loop run before and after every iteration (see
REFERENCE_PROBE_S); raw times are printed beside them and kept in the result
file.

Run from the root of a source checkout; the package is imported from src/.
Generated inputs, outputs and results go to .bench_out/ under that root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: the benchmark is single-threaded
    os.environ[_var] = "1"

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = workloads.ROOT
WORK = ROOT / ".bench_out"
REQUIRED = ("BENCHMARK.json", "src/swarmpath/__init__.py", "src/swarmpath/cli.py",
            "scenarios/case2_forest.json", "scenarios/sweep_k.json",
            "scenarios/sweep_d.json")

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
SETUP_PROBES = 7
TAIL_BEYOND = 10          # a tail percentile needs this many samples above it
PROBE_TIMEOUT_S = 120

# Counts that must repeat exactly between traced iterations and dense seeds.
REPEATING = ("simulator.steps", "apf.total_force_calls", "apf.repulsion_terms",
             "topology.nearest_obstacle_calls", "impedance.link_step_calls",
             "baseline.total_force_calls", "world.vec2_per_step",
             "topology.link_transitions")

# Every reported time is scaled to a machine on which speed_probe() takes
# REFERENCE_PROBE_S.  On a shared host the CPU's speed drifts by up to 1.5x
# over seconds to minutes; probes on both sides of every timed interval track
# that drift, so scaled times repeat from run to run where raw ones do not.
# Raw times stay in the result file and are printed beside the scaled ones.
REFERENCE_PROBE_S = 0.007
TIME_UNITS = ("s", "us")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- statistics --------------------------------------------------------------

def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples above it; with fewer samples, the lowest value."""
    ordered = sorted(values)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, median of three: the CPU's current speed."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def to_reference(times: list[float], probes: list[float]) -> list[float]:
    """times[i] in reference seconds, by the mean of probes[i] and probes[i + 1]."""
    return [t * 2.0 * REFERENCE_PROBE_S / (a + b)
            for t, a, b in zip(times, probes[:-1], probes[1:], strict=True)]


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


# --- one iteration -----------------------------------------------------------

def _invoke(main, argv: list[str]):
    """Exit code of one CLI call, None if it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except Exception:  # a crashing iteration is a failed iteration
        traceback.print_exc()
        return None


def _invocations(wl: workloads.Workload, main, out: Path) -> list:
    return [_invoke(main, argv + ["-o", str(out / label)])
            for label, argv in wl.invocations]


def timed_iteration(wl, main, out: Path, body=_invocations) -> tuple[float, list]:
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    t0 = perf_counter()
    codes = body(wl, main, out)
    return perf_counter() - t0, codes


def digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class OutputChecker:
    """Exit codes, byte identity with the previous iteration, workload checks.

    The workload's own checks run once per distinct set of output bytes.
    """

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.previous: dict[str, str] | None = None
        self._verdicts: dict[tuple, list[str]] = {}
        self.problems: list[str] = []

    def __call__(self, codes: list, out: Path, compare_previous: bool = True) -> bool:
        problems = [f"{label}: exit code {code}"
                    for (label, _), code in zip(self.wl.invocations, codes) if code != 0]
        current = digests(out)
        if compare_previous and self.previous is not None and current != self.previous:
            changed = sorted(k for k in current.keys() | self.previous.keys()
                             if current.get(k) != self.previous.get(k))
            problems.append(f"outputs differ from the previous iteration: {changed}")
        key = tuple(sorted(current.items()))
        if key not in self._verdicts:
            self._verdicts[key] = self.wl.check(out)
        problems += self._verdicts[key]
        self.previous = current
        self.problems += problems
        return not problems


def measure_loop(wl, main, out, check, seconds: float, minimum: int,
                 body=_invocations) -> tuple[list[float], list[float], int]:
    """Closed loop until the next iteration would overrun `seconds`.

    Returns the iteration wall times, the speed probes taken before each
    iteration and after the last, and the number of failed iterations.
    """
    walls: list[float] = []
    probes: list[float] = []
    failed = 0
    start = perf_counter()
    while True:
        probes.append(speed_probe())
        wall, codes = timed_iteration(wl, main, out, body)
        walls.append(wall)
        failed += not check(codes, out)
        elapsed = perf_counter() - start
        if len(walls) >= minimum and elapsed + statistics.median(walls) > seconds:
            probes.append(speed_probe())
            return walls, probes, failed


# --- fresh-process probes ----------------------------------------------------

def _fresh_process(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "probe.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(wl) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_PROBES fresh interpreters, with speed probes around each."""
    samples, probes = [], [speed_probe()]
    for _ in range(SETUP_PROBES):
        samples.append(_fresh_process(["setup", str(ROOT), *wl.inputs])["setup_s"])
        probes.append(speed_probe())
    return samples, probes


def peak_rss(wl, out: Path) -> tuple[float, list]:
    shutil.rmtree(out, ignore_errors=True)
    argv = json.dumps([argv for _, argv in wl.invocations])
    result = _fresh_process(["rss", str(ROOT), str(out), argv])
    return result["peak_rss_mb"], result["exit_codes"]


# --- instrumentation for the traced run --------------------------------------

def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from swarmpath import (apf, baseline, cli, metrics, plotsvg, simulator, sweep,
                           topology, traceio, world)
    counts = tracer.counts
    run_depth = [0]

    def on_run(args, trace):
        counts["simulator.steps"] += trace.n_frames - 1
        counts["simulator.drone_steps"] += (trace.n_frames - 1) * trace.n_drones

    traced_run = tracer.wrap("simulator.run", simulator.run, on_run)

    def scoped_run(*args, **kwargs):
        run_depth[0] += 1
        try:
            return traced_run(*args, **kwargs)
        finally:
            run_depth[0] -= 1

    tracer.patch(cli, "run", scoped_run)
    tracer.patch(sweep, "run", scoped_run)

    post_init = world.Vec2.__post_init__

    def counted_post_init(vec):
        if run_depth[0]:
            counts["world.vec2"] += 1
        post_init(vec)

    tracer.patch(world.Vec2, "__post_init__", counted_post_init)

    effective = world.effective_obstacles

    def counted_effective(spec):
        counts["world.effective_obstacles"] += 1
        return effective(spec)

    for module in (apf, topology, baseline):
        tracer.patch(module, "effective_obstacles", counted_effective)

    repulsion = apf.repulsion_force

    def counted_repulsion(p, obs, k_rep):
        force = repulsion(p, obs, k_rep)
        counts["apf.repulsion_terms"] += 1
        if force.x or force.y:
            counts["apf.repulsion_active"] += 1
        return force

    tracer.patch(apf, "repulsion_force", counted_repulsion)

    def on_mode(args, mode):
        old = args[0].mode
        if mode != old:
            counts["topology.link_transitions"] += 1
            if old.leader_linked:
                counts["topology.acquisitions"] += 1

    def count_len(key):
        def observe(args, text):
            counts[key] += len(text)
        return observe

    def on_csv(args, text):
        counts["traceio.trace_bytes"] += len(text)
        counts["traceio.trace_frames"] += args[0].n_frames

    def on_sweep(args, result):
        counts["sweep.points"] += len(result.runs)

    spans = [
        (simulator, "swarm_step", "topology.swarm_step", None),
        (simulator, "baseline_step", "baseline.baseline_step", None),
        (topology, "leader_step", "apf.leader_step", None),
        (apf, "total_force", "apf.total_force", None),
        (baseline, "total_force", "baseline.total_force", None),
        (topology, "update_link_mode", "topology.update_link_mode", on_mode),
        (topology, "nearest_obstacle", "topology.nearest_obstacle", None),
        (topology, "link_step", "impedance.link_step", None),
        (world, "load_scenario", "world.load_scenario", None),
        (sweep, "load_scenario", "world.load_scenario", None),
        (sweep, "run_sweep", "sweep.run_sweep", on_sweep),
        (metrics, "compare", "metrics.compare", None),
        (metrics, "min_obstacle_clearance", "metrics.min_obstacle_clearance", None),
        (metrics, "max_pairwise_distance", "metrics.max_pairwise_distance", None),
        (traceio, "render_trace_csv", "traceio.render_trace_csv", on_csv),
        (traceio, "render_metrics_json", "traceio.render_json", None),
        (traceio, "render_comparison_json", "traceio.render_json", None),
        (plotsvg, "render_trace_svg", "plotsvg.render", count_len("plotsvg.svg_bytes")),
        (plotsvg, "render_compare_svg", "plotsvg.render", count_len("plotsvg.svg_bytes")),
    ]
    for owner, attr, name, observe in spans:
        tracer.patch_span(owner, attr, name, observe)


def layer_metrics(spans: dict[str, dict], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def us_per_call(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counts["simulator.steps"]
    step_us = [1e6 * d for d in spans.get("topology.swarm_step", {}).get("durations", [])]
    return {
        "world.vec2_per_step": ratio(counts["world.vec2"], steps),
        "world.effective_obstacles_per_step": ratio(counts["world.effective_obstacles"], steps),
        "world.load_scenario_us": us_per_call("world.load_scenario"),
        "apf.total_force_calls": calls("apf.total_force"),
        "apf.total_force_us": us_per_call("apf.total_force"),
        "apf.repulsion_terms": counts["apf.repulsion_terms"],
        "apf.repulsion_active_ratio": ratio(counts["apf.repulsion_active"],
                                            counts["apf.repulsion_terms"]),
        "apf.leader_step_us": us_per_call("apf.leader_step"),
        "topology.swarm_step_us_p50": statistics.median(step_us) if step_us else 0.0,
        "topology.swarm_step_us_tail": tail(step_us)[0] if step_us else 0.0,
        "topology.nearest_obstacle_calls": calls("topology.nearest_obstacle"),
        "topology.nearest_obstacle_us": us_per_call("topology.nearest_obstacle"),
        "topology.update_link_mode_us": us_per_call("topology.update_link_mode"),
        "topology.link_transitions": counts["topology.link_transitions"],
        "topology.acquire_ratio": ratio(counts["topology.acquisitions"],
                                        calls("topology.nearest_obstacle")),
        "impedance.link_step_calls": calls("impedance.link_step"),
        "impedance.link_step_us": us_per_call("impedance.link_step"),
        "baseline.baseline_step_us": us_per_call("baseline.baseline_step"),
        "baseline.total_force_calls": calls("baseline.total_force"),
        "simulator.steps": steps,
        "simulator.run_s": total("simulator.run"),
        "simulator.self_s": self_s("simulator.run"),
        "simulator.us_per_drone_step": 1e6 * ratio(total("simulator.run"),
                                                   counts["simulator.drone_steps"]),
        "metrics.compare_s": total("metrics.compare"),
        "metrics.min_obstacle_clearance_s": total("metrics.min_obstacle_clearance"),
        "metrics.max_pairwise_distance_s": total("metrics.max_pairwise_distance"),
        "traceio.render_trace_csv_s": total("traceio.render_trace_csv"),
        "traceio.trace_bytes_per_frame": ratio(counts["traceio.trace_bytes"],
                                               counts["traceio.trace_frames"]),
        "traceio.render_json_s": total("traceio.render_json"),
        "plotsvg.render_s": total("plotsvg.render"),
        "plotsvg.svg_bytes": counts["plotsvg.svg_bytes"],
        "sweep.points": counts["sweep.points"],
        "sweep.run_sweep_s": total("sweep.run_sweep"),
        "cli.self_s": self_s("cli.main"),
        "trace.wall_s": total("iteration"),
        "trace.unattributed_s": self_s("iteration"),
    }


# --- the two modes -----------------------------------------------------------

def prepare(name: str, seed: int, workdir: Path, main) -> tuple[workloads.Workload, list[str]]:
    """The workload for a seed, plus problems found while preparing it."""
    if name != "dense_forest":
        return getattr(workloads, name)(seed, workdir), []
    reference = workloads.decoy_free_scenario(workdir)
    ref_out = workdir / "reference"
    shutil.rmtree(ref_out, ignore_errors=True)
    code = _invoke(main, ["run", str(reference), "-o", str(ref_out)])
    problems = [] if code == 0 else [f"decoy-free reference run: exit code {code}"]
    trace = ref_out / "trace.csv"
    digest = hashlib.sha256(trace.read_bytes()).hexdigest() if trace.is_file() else "missing"
    return workloads.dense_forest(seed, workdir, digest), problems


def warm_up(wl, main, out, check) -> int:
    """One unmeasured iteration; returns the drone-steps it simulated."""
    from swarmpath import cli, simulator, sweep
    tracer = Tracer()
    run = simulator.run

    def counted(*args, **kwargs):
        trace = run(*args, **kwargs)
        tracer.counts["drone_steps"] += (trace.n_frames - 1) * trace.n_drones
        return trace

    tracer.patch(cli, "run", counted)
    tracer.patch(sweep, "run", counted)
    try:
        _, codes = timed_iteration(wl, main, out)
    finally:
        tracer.restore()
    check(codes, out, compare_previous=False)
    return tracer.counts["drone_steps"]


def run_untraced(args, wl, main, workdir, checker) -> tuple[dict, dict]:
    out = workdir / "out"
    drone_steps = warm_up(wl, main, out, checker)
    walls, probes, failed = measure_loop(wl, main, out, checker, args.seconds, MIN_ITERATIONS)
    setups, setup_probes = setup_seconds(wl)
    rss_mb, rss_codes = peak_rss(wl, workdir / "rss_out")
    if any(c != 0 for c in rss_codes):
        checker.problems.append(f"fresh-process iteration: exit codes {rss_codes}")
    scaled = to_reference(walls, probes)
    tail_value, tail_pct, beyond = tail(scaled)
    wall = statistics.median(scaled)
    setup = statistics.median(to_reference(setups, setup_probes))
    metrics = {
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "drone_steps_per_s": drone_steps / wall,
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "iterations": len(walls), "failed": failed, "fail_ratio": failed / len(walls),
        "wall_s_tail_percentile": tail_pct, "wall_s_tail_beyond": beyond,
        "drone_steps_per_iteration": drone_steps,
        "raw_walls_s": walls, "speed_probes_s": probes,
        "raw_setup_s": setups, "setup_speed_probes_s": setup_probes,
        "sha256": checker.previous,
    }
    print(f"  speed probe median {1e3 * statistics.median(probes):.3f} ms, reference "
          f"{1e3 * REFERENCE_PROBE_S:g} ms; times are in reference seconds")
    print(f"  {'wall_s':<20}{wall:>14.6f} s      raw {statistics.median(walls):.6f} s, "
          f"median of {len(walls)} iterations")
    print(f"  {'wall_s_tail':<20}{tail_value:>14.6f} s      "
          f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(walls)}")
    print(f"  {'drone_steps_per_s':<20}{metrics['drone_steps_per_s']:>14.1f} 1/s    "
          f"{drone_steps} drone-steps per iteration")
    print(f"  {'setup_s':<20}{setup:>14.6f} s      raw {statistics.median(setups):.6f} s, "
          f"median of {SETUP_PROBES} fresh interpreters")
    print(f"  {'peak_rss_mb':<20}{rss_mb:>14.2f} MB     one iteration in a fresh process")
    print(f"  {'fail_ratio':<20}{detail['fail_ratio']:>14.4f} ratio  "
          f"{failed} of {len(walls)} iterations failed an output check")
    return metrics, detail


def run_traced(args, wl, main, workdir, checker) -> tuple[dict, dict]:
    from swarmpath import cli
    out = workdir / "out"
    warm_up(wl, main, out, checker)
    half = args.seconds / 2.0
    untraced, untraced_probes, failed = measure_loop(wl, main, out, checker, half,
                                                     MIN_TRACED_ITERATIONS)

    tracer = Tracer()
    instrument(tracer)
    traced_main = tracer.wrap("cli.main", cli.main)
    iteration = tracer.wrap("iteration", _invocations)
    bounds: list[tuple[int, int]] = []
    per_iteration: list[Counter] = []

    def body(wl_, main_, out_):
        lo, before = tracer.n_spans, Counter(tracer.counts)
        codes = iteration(wl_, main_, out_)
        bounds.append((lo, tracer.n_spans))
        per_iteration.append(tracer.counts - before)
        return codes

    try:
        walls, probes, traced_failed = measure_loop(wl, traced_main, out, checker, half,
                                                    MIN_TRACED_ITERATIONS, body)
        failed += traced_failed
        other = None
        if wl.name == "dense_forest":
            # a second seed must repeat every count and the trace bytes
            other = workloads.dense_forest(args.seed + 1, workdir, wl.reference_digest)
            other_checker = OutputChecker(other)
            _, codes = timed_iteration(other, traced_main, workdir / "out_other", body)
            failed += not other_checker(codes, workdir / "out_other")
            checker.problems += [f"seed {args.seed + 1}: {p}" for p in other_checker.problems]
    finally:
        tracer.restore()

    rows = [layer_metrics(tracer.summarise(lo, hi), c)
            for (lo, hi), c in zip(bounds, per_iteration)]
    for n, row in enumerate(rows[1:], start=1):
        label = f"seed {args.seed + 1}" if other is not None and n == len(rows) - 1 \
            else f"traced iteration {n + 1}"
        changed = [k for k in REPEATING if row[k] != rows[0][k]]
        if changed:
            checker.problems.append(f"{label}: counts differ from the first: {changed}")
    units = metric_units("per_layer")
    factors = to_reference([1.0] * len(walls), probes)
    own = [{k: v * f if units.get(k) in TIME_UNITS else v for k, v in row.items()}
           for row, f in zip(rows, factors)]
    metrics = {k: statistics.median(r[k] for r in own) for k in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(to_reference(walls, probes))
                                   - statistics.median(to_reference(untraced, untraced_probes)))

    # self times of all spans in an iteration add up to its wall time
    span_totals: dict[str, dict] = {}
    for lo, hi in bounds[:len(walls)]:
        summary = tracer.summarise(lo, hi)
        wall = summary["iteration"]["total_s"]
        attributed = sum(s["self_s"] for s in summary.values())
        if abs(attributed - wall) > 1e-9 * max(wall, 1.0):
            checker.problems.append(f"span self times {attributed} != iteration {wall}")
        for name, s in summary.items():
            acc = span_totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
    spans_file = workdir / "spans.csv"
    tracer.write_csv(spans_file)

    n = len(walls)
    whole = sum(v["self_s"] for v in span_totals.values())
    print(f"  spans over {n} traced iterations "
          f"(self times sum to {whole:.6f} s of {sum(walls):.6f} s measured)")
    print(f"  {'span':<34}{'calls/iter':>12}{'total s/iter':>14}{'self s/iter':>14}{'self %':>8}")
    for name, s in sorted(span_totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34}{s['calls'] / n:>12.1f}{s['total_s'] / n:>14.6f}"
              f"{s['self_s'] / n:>14.6f}{100 * s['self_s'] / whole:>8.2f}")
    print(f"  tracing overhead: traced {statistics.median(walls):.6f} s vs untraced "
          f"{statistics.median(untraced):.6f} s per iteration (raw)")
    print(f"  per-layer times below are in reference seconds (speed probe median "
          f"{1e3 * statistics.median(probes):.3f} ms, reference {1e3 * REFERENCE_PROBE_S:g} ms)")
    print(f"  {'per-layer metric':<40}{'value':>16}  unit")
    for name, unit in units.items():
        print(f"  {name:<40}{metrics[name]:>16.6g}  {unit}")
    detail = {
        "iterations": len(untraced) + len(rows), "failed": failed,
        "raw_untraced_walls_s": untraced, "raw_traced_walls_s": walls,
        "untraced_speed_probes_s": untraced_probes, "traced_speed_probes_s": probes,
        "spans": {k: {kk: vv / n for kk, vv in v.items()} for k, v in span_totals.items()},
        "spans_file": str(spans_file.relative_to(ROOT)),
        "per_iteration": rows, "sha256": checker.previous,
    }
    return metrics, detail


def run_workload(args) -> int:
    from swarmpath import cli
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    mode = "traced" if args.trace else "untraced"
    print(f"swarmpath benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {mode}")
    wl, problems = prepare(args.workload, args.seed, workdir, cli.main)
    checker = OutputChecker(wl)
    checker.problems += problems
    measure = run_traced if args.trace else run_untraced
    metrics, detail = measure(args, wl, cli.main, workdir, checker)
    env["loadavg_end"] = list(os.getloadavg())
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{env['cpu']}, load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for path, digest in (detail["sha256"] or {}).items():
        print(f"  sha256 {digest}  {path}")
    for problem, times in Counter(checker.problems).items():
        print(f"  CHECK FAILED ({times}x): {problem}")
    correct = not checker.problems
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": detail["iterations"],
        "failed": detail["failed"] if correct else max(detail["failed"], 1),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, detail=detail, problems=checker.problems)
    (workdir / f"result_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"claim": None, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in workloads.NAMES:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(trace)]
            result_file = WORK / name / f"result_trace{trace}.json"
            result_file.unlink(missing_ok=True)
            code = subprocess.run(cmd, cwd=ROOT, check=False).returncode
            status = status or code
            if not result_file.is_file():
                status = status or 1
                continue
            record = json.loads(result_file.read_text(encoding="utf-8"))
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in record["metrics"].items()}
            entry[f"correct_trace{trace}"] = record["correct"]
            if not trace:
                d = record["detail"]
                entry["end_to_end"]["fail_ratio"] = d["fail_ratio"]
                entry["wall_s_tail"] = {"percentile": d["wall_s_tail_percentile"],
                                        "beyond": d["wall_s_tail_beyond"],
                                        "samples": d["iterations"]}
                entry["sha256"] = d["sha256"]
                summary["env"] = record["env"]
    out = WORK / "summary.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    units = dict(metric_units("end_to_end"), fail_ratio="ratio")
    print(f"\n{'metric':<20}{'unit':>6}" + "".join(f"{n:>18}" for n in workloads.NAMES))
    for metric, unit in units.items():
        values = [summary["workloads"][n].get("end_to_end", {}).get(metric)
                  for n in workloads.NAMES]
        cells = "".join(f"{v:>18.6g}" if v is not None else f"{'missing':>18}" for v in values)
        print(f"{metric:<20}{unit:>6}{cells}")
    print(f"summary written to {out.relative_to(ROOT)}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a swarmpath source checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import swarmpath
    if not Path(swarmpath.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported swarmpath from {swarmpath.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
