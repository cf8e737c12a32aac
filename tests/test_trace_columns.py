"""Invariants of the recorded trace columns over small random scenarios.

For both controllers: two runs of one spec give equal columns, t is exactly
step * dt, no drone hands its link from one obstacle straight to another, and
every recorded position is finite unless the run raised SingularityError.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from swarmpath.apf import SingularityError
from swarmpath.simulator import CONTROLLERS, SWARMPATH, run
from swarmpath.world import (Obstacle, ScenarioSpec, ScenarioValidationError, Vec2,
                             validate_spec)

COLUMNS = ("t", "positions", "leader", "modes")


@st.composite
def small_specs(draw):
    """Up to four posts clustered near the path, so links attach, release and
    meet a second post while still attached to the first."""
    offsets = draw(st.lists(st.tuples(st.sampled_from([-0.4, 0.0, 0.4]),
                                      st.sampled_from([-0.4, 0.0, 0.4])),
                            min_size=1, max_size=4, unique=True))
    cx, cy = draw(st.floats(0.5, 1.5)), draw(st.floats(-0.5, 0.5))
    posts = []
    for _ in range(draw(st.integers(0, 4))):
        radius = draw(st.floats(0.05, 0.2))
        r_imp = radius + draw(st.floats(0.1, 0.5))
        r_apf = r_imp + draw(st.floats(0.0, 0.5))
        center = Vec2(cx + draw(st.floats(-0.5, 0.5)), cy + draw(st.floats(-0.5, 0.5)))
        posts.append(Obstacle(center, radius, r_apf, r_imp))
    spec = ScenarioSpec(
        start=Vec2(0.0, 0.0),
        goal=Vec2(draw(st.floats(1.5, 2.5)), draw(st.floats(-0.5, 0.5))),
        obstacles=tuple(posts),
        formation_offsets=tuple(Vec2(x, y) for x, y in offsets),
        dt=draw(st.sampled_from([0.01, 0.02, 0.03])),
        max_steps=draw(st.sampled_from([1, 100, 250, 400])),
    )
    try:
        validate_spec(spec)
    except ScenarioValidationError:
        assume(False)
    return spec


def run_or_none(spec, controller):
    try:
        return run(spec, controller)
    except SingularityError:
        return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=small_specs(), controller=st.sampled_from(CONTROLLERS))
def test_columns_invariants(spec, controller):
    trace = run_or_none(spec, controller)
    if trace is None:
        assert run_or_none(spec, controller) is None  # deterministic failure too
        return
    again = run(spec, controller)
    assert again.outcome == trace.outcome
    for name in COLUMNS:
        column = getattr(trace, name)
        assert np.array_equal(column, getattr(again, name))
        assert column is None or not column.flags.writeable

    n, d = trace.n_frames, len(spec.formation_offsets)
    assert 1 <= n <= spec.max_steps + 1
    assert trace.positions.shape == (n, d, 2)
    assert np.array_equal(trace.t, np.arange(n) * spec.dt)
    assert np.isfinite(trace.positions).all()

    if controller != SWARMPATH:
        assert trace.leader is None and trace.modes is None
        return
    assert trace.leader.shape == (n, 2) and trace.modes.shape == (n, d)
    assert np.isfinite(trace.leader).all()
    before, after = trace.modes[:-1], trace.modes[1:]
    handover = (before >= 0) & (after >= 0) & (before != after)
    assert not handover.any()
