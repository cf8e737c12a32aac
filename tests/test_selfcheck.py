import sys

import pytest

from swarmpath import apf, impedance, topology
from swarmpath.impedance import link_coefficients, link_step
from swarmpath.selfcheck import (
    HORIZON_S,
    LINK,
    check_integrator,
    check_no_overshoot,
    check_repulsion_continuity,
    check_rotational_equivariance,
    release,
    run_selfcheck,
)


def test_run_selfcheck_covers_all_checks():
    results = run_selfcheck()
    names = [r.name for r in results]
    assert names == [
        "integrator_vs_analytic",
        "integrator_no_overshoot",
        "repulsion_boundary_continuity",
        "rotational_equivariance",
    ]
    for r in results:
        assert r.max_error >= 0.0
        assert r.tolerance > 0.0
        assert r.passed == (r.max_error < r.tolerance)


def test_integrator_error_shrinks_with_dt():
    # The exact step leaves only rounding error, at coarse and fine dt alike.
    for dt in (0.01, 0.001):
        result = check_integrator(dt=dt)
        assert result.passed
        assert result.max_error < 1e-12


def test_integrator_error_at_default_dt_is_documented_meas():
    # At the default dt = 0.01 the stepped release is the closed form to
    # rounding (measured 6.7e-16), far inside the 1e-3 tolerance.
    result = check_integrator(dt=0.01)
    assert result.passed
    assert result.max_error < 1e-12


def test_no_overshoot_check_passes():
    assert check_no_overshoot().passed


def test_repulsion_continuity_check_passes():
    assert check_repulsion_continuity().passed


def test_rotational_equivariance_check_passes():
    result = check_rotational_equivariance()
    assert result.passed
    assert result.max_error < 1e-12


@pytest.mark.parametrize("dt", [0.01, 0.001])
def test_the_kernel_release_is_the_reference_release(dt):
    # The link checks release a follower through swarm_step; its rows must be
    # a plain link_step loop from (1.0, 0.0) at rest, step for step.
    rows = release(dt)
    coefficients = link_coefficients(LINK, dt)
    state = (1.0, 0.0, 0.0, 0.0)
    expected = [state[:2]]
    for _ in range(round(HORIZON_S / dt)):
        state = link_step(*state, 0.0, 0.0, coefficients)
        expected.append(state[:2])
    assert list(zip(rows[::2], rows[1::2])) == expected


REFERENCES = (apf.repulsion_force, apf.total_force, apf.leader_step,
              impedance.link_step, topology.update_link_mode)


def test_validate_reads_no_reference(monkeypatch):
    # Every module that binds a reference gets a stub that raises in its place.
    def refuse(*args, **kwargs):
        raise AssertionError("validate called a reference")

    bound = [(module, name) for module in list(sys.modules.values())
             if getattr(module, "__name__", "").startswith("swarmpath")
             for name, value in vars(module).items()
             if any(value is reference for reference in REFERENCES)]
    assert {name for _, name in bound} == {f.__name__ for f in REFERENCES}
    for module, name in bound:
        monkeypatch.setattr(module, name, refuse)
    results = run_selfcheck()
    assert len(results) == 4
    assert all(r.passed for r in results)
