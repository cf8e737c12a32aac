"""The traced benchmark's hooks must fit the program they observe.

`bench/bench.py --trace 1` wraps layer functions by rebinding them where their
callers look them up, and its observers read what the wrapped calls take and
return.  A refactor that drops or moves one of those names, or changes what an
observer reads, breaks the traced run, not this suite, so these tests run the
harness's `instrument()` against a recorder that checks each name, and with
the real tracer through one run, one compare, one sweep and `validate`.  The
names bound only for the harness must be their definitions, so they carry no
logic and can be deleted with nothing to move.
"""

import importlib
import json
import sys
from collections import Counter

import pytest

from swarmpath import cli, simulator
from swarmpath.sweep import read_sweep, sweep_point
from swarmpath.world import Vec2, serialize_scenario
from conftest import REPO_ROOT, straight_spec


class RecordingTracer:
    """Stands in for bench/tracer.py's Tracer: records, never patches."""

    def __init__(self):
        self.counts = Counter()
        self.targets = []

    def wrap(self, name, fn, observe=None):
        return fn

    def patch(self, owner, attr, replacement):
        self.targets.append((owner, attr))

    def patch_span(self, owner, attr, name, observe=None):
        self.targets.append((owner, attr))


@pytest.fixture
def bench(monkeypatch):
    """bench/bench.py as a module, imported afresh."""
    # Importing the harness sets these; monkeypatch restores them afterwards.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "bench", raising=False)
    return importlib.import_module("bench")


def test_every_rebound_name_resolves(bench):
    tracer = RecordingTracer()
    bench.instrument(tracer)
    names = {(getattr(owner, "__name__", owner), attr) for owner, attr in tracer.targets}
    assert ("swarmpath.topology", "nearest_obstacle") in names
    assert ("swarmpath.apf", "repulsion_force") in names
    assert ("Vec2", "__post_init__") in names
    missing = [(owner, attr) for owner, attr in tracer.targets if not hasattr(owner, attr)]
    assert missing == []


def test_the_harness_only_bindings_are_their_definitions():
    # No module calls these names; each is imported only so that instrument()
    # can rebind it where the harness looks for it.
    from swarmpath import apf, baseline, impedance, sweep, topology, world
    assert topology.link_step is impedance.link_step
    assert topology.leader_step is apf.leader_step
    assert baseline.total_force is apf.total_force
    assert sweep.load_scenario is world.load_scenario
    for module in (apf, topology, baseline):
        assert module.effective_obstacles is world.effective_obstacles


def trace_rows(path):
    """The number of frames a trace CSV holds."""
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


def test_the_traced_harness_observes_a_run_a_compare_and_a_sweep(bench, tmp_path):
    # The real tracer wraps every layer; its observers read each wrapped
    # call's arguments and result, so one that no longer fits raises out of
    # the command.  Every patch is restored, whatever happens.
    spec = straight_spec(goal=Vec2(0.5, 0.0), max_steps=200)
    (tmp_path / "tiny.json").write_text(serialize_scenario(spec), encoding="utf-8")
    (tmp_path / "sweep.json").write_text(
        json.dumps({"parameter": "k", "values": [20.0, 30.0], "scenario": "tiny.json"}),
        encoding="utf-8")
    commands = {"run": "tiny.json", "compare": "tiny.json", "sweep": "sweep.json"}
    tracer = bench.Tracer()
    steps = {}
    original_run = simulator.run
    bench.instrument(tracer)
    try:
        for command, document in commands.items():
            before = tracer.counts["simulator.steps"]
            code = cli.main([command, str(tmp_path / document), "-o", str(tmp_path / command)])
            assert code == cli.EXIT_OK
            steps[command] = tracer.counts["simulator.steps"] - before
    finally:
        tracer.restore()
    assert cli.run is simulator.run is original_run
    assert steps["run"] == trace_rows(tmp_path / "run" / "trace.csv") - 1
    assert steps["compare"] == sum(trace_rows(tmp_path / "compare" / name) - 1
                                   for name in ("trace_swarmpath.csv", "trace_apf.csv"))
    sweep = read_sweep(tmp_path / "sweep.json")
    runs = json.loads((tmp_path / "sweep" / "sweep.json").read_text(encoding="utf-8"))["runs"]
    assert tracer.counts["sweep.points"] == len(runs) == 2
    assert steps["sweep"] == sum(
        simulator.run(sweep_point(sweep.scenario, "k", value)).n_frames - 1
        for value in sweep.values)
    spans = tracer.summarise(0, tracer.n_spans)
    assert spans["simulator.run"]["calls"] == 1 + 2 + 2
    assert spans["topology.swarm_step"]["calls"] > 0


def test_the_traced_harness_runs_validate(bench, capsys):
    # validate drives the kernels that runs call, so no observer of a
    # reference is reached and every check passes under the real tracer.
    tracer = bench.Tracer()
    bench.instrument(tracer)
    try:
        code = cli.main(["validate"])
    finally:
        tracer.restore()
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.endswith(" PASS") for line in lines)
