"""The names the traced benchmark rebinds must exist in the program.

`bench/bench.py --trace 1` wraps layer functions by rebinding them where their
callers look them up.  A refactor that drops or moves one of those names
breaks the traced run, not this suite, so this test runs the harness's
`instrument()` against a recorder that checks each name and rebinds nothing.
"""

import importlib
import sys
from collections import Counter

from conftest import REPO_ROOT


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


def test_every_rebound_name_resolves(monkeypatch):
    # Importing the harness sets these; monkeypatch restores them afterwards.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "bench", raising=False)
    bench = importlib.import_module("bench")
    tracer = RecordingTracer()
    bench.instrument(tracer)
    names = {(getattr(owner, "__name__", owner), attr) for owner, attr in tracer.targets}
    assert ("swarmpath.topology", "nearest_obstacle") in names
    assert ("swarmpath.apf", "repulsion_force") in names
    assert ("Vec2", "__post_init__") in names
    missing = [(owner, attr) for owner, attr in tracer.targets if not hasattr(owner, attr)]
    assert missing == []
