"""The per-spec obstacle grid: its cull must be exact.

ObstacleIndex lets the leader's force sum and the link acquisition visit only
the obstacles listed in one grid cell.  These tests pin that the cull drops
nothing that acts: the force cell lists every acting obstacle in index order
and sums to the same bits as every obstacle, acquisition decisions equal the
scan over every obstacle, far decoys change no output byte and no force
evaluation, and a point on a center still raises.  They also pin that the
cull is tight: each obstacle is listed only where its reach disk touches, so
a force query on the forest lists few rows.
"""

import dataclasses
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmpath import apf
from swarmpath.apf import (
    NO_REPULSION,
    SingularityError,
    leader_step,
    repulsion_force,
    total_force,
)
from swarmpath.simulator import CONVENTIONAL_APF, SWARMPATH, run
from swarmpath.topology import LEADER, nearest_obstacle, update_link_mode
from swarmpath.traceio import render_trace_csv
from swarmpath.world import (
    GRID_MARGIN,
    ApfParams,
    Gate,
    Obstacle,
    ObstacleIndex,
    ScenarioSpec,
    TopologyParams,
    Vec2,
    _grid,
    _grid_reaches,
    effective_obstacles,
    read_scenario,
)
from conftest import SCENARIO_DIR

coord = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.integers(min_value=-10, max_value=10).map(lambda k: k * 0.5),
)


@st.composite
def obstacles(draw):
    radius = draw(st.floats(min_value=0.01, max_value=0.6))
    r_imp = radius + draw(st.floats(min_value=0.01, max_value=1.5))
    r_apf = r_imp + draw(st.sampled_from([0.0, 0.25, draw(st.floats(0.0, 2.0))]))
    return Obstacle(Vec2(draw(coord), draw(coord)), radius, r_apf, r_imp)


@st.composite
def specs(draw):
    gates = tuple(Gate(a, b) for a, b in draw(st.lists(st.tuples(obstacles(), obstacles()),
                                                        max_size=2)))
    return ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                        obstacles=tuple(draw(st.lists(obstacles(), max_size=8))),
                        gates=gates)


@st.composite
def scenes(draw):
    """A spec and a query point: a free point, a point on cell edges, an
    obstacle center, a point on a reach, or one between two centers."""
    spec = draw(specs())
    all_obs = effective_obstacles(spec)
    index = spec.obstacle_index
    kinds = ["free", "edge"] + (["center", "reach", "between"] if all_obs else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return spec, Vec2(draw(coord), draw(coord))
    if kind == "edge":
        cell = draw(st.sampled_from([index.cell, index.link_cell]))
        kx, ky = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
        return spec, Vec2(kx * cell, ky * cell + draw(st.sampled_from([0.0, 0.5 * cell])))
    obs = draw(st.sampled_from(all_obs))
    if kind == "between":
        other = draw(st.sampled_from(all_obs))
        t = draw(st.floats(0.0, 1.0))
        return spec, Vec2(obs.center.x + t * (other.center.x - obs.center.x),
                          obs.center.y + t * (other.center.y - obs.center.y))
    if kind == "center":
        return spec, obs.center
    r_imp_max = max(o.r_imp for o in all_obs)
    reach = obs.radius + draw(st.sampled_from([obs.r_apf, obs.r_imp, r_imp_max]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return spec, Vec2(obs.center.x + sign * reach, obs.center.y)


def brute_force_acting(p, rows):
    acting = []
    for row in rows:
        try:
            if repulsion_force(p.x, p.y, row, 1.0) is not NO_REPULSION:
                acting.append(row)
        except SingularityError:
            acting.append(row)
    return acting


def force_bits(p, gx, gy, rows):
    """total_force's exact bits (signs of zero included), or its error message."""
    try:
        return struct.pack("<dd", *total_force(p.x, p.y, gx, gy, rows, ApfParams()))
    except SingularityError as exc:
        return str(exc)


def brute_force_mode(p, rows):
    near = nearest_obstacle(p.x, p.y, rows)
    if near is not None and near[1] < rows[near[0]][4]:
        return near[0]
    return LEADER


# One post whose force reach (0.6 m) is two force cells (0.3 m) and whose link
# reach (0.4 m) is one link cell: points on those cell edges, on the reach.
EDGE_SPEC = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                         obstacles=(Obstacle(Vec2(0.0, 0.0), 0.1, 0.5, 0.3),))
EDGE_POINTS = [
    point
    for edge in (2 * EDGE_SPEC.obstacle_index.cell, -2 * EDGE_SPEC.obstacle_index.cell,
                 EDGE_SPEC.obstacle_index.link_cell)
    for v in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf))
    for point in (Vec2(v, 0.0), Vec2(0.0, v))
]


def on_cell_edges(test):
    for point in EDGE_POINTS:
        test = example(scene=(EDGE_SPEC, point))(test)
    return test


# A center 2.2e-309 m from the point: magnitude / dist overflows, which must
# raise SingularityError like a point on the center.
@example(scene=(ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                             obstacles=(Obstacle(Vec2(0.0, 2.225073858507203e-309),
                                                 0.5, 1.5, 1.5),)),
                Vec2(0.0, 0.0)))
# Points where the post acts only by rounding (the exact distance is past its
# reach), in cells its unwidened reach disk would not list.
@example(scene=(ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                             obstacles=(Obstacle(Vec2(0.1, 0.0), 0.2, 0.5, 0.3),)),
                Vec2(0.1, -0.7000000000000001)))
@example(scene=(ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(1.0, 0.0),
                             obstacles=(Obstacle(Vec2(-0.7, 0.0), 0.2, 0.5, 0.3),)),
                Vec2(5e-324, -5e-324)))
@on_cell_edges
@settings(max_examples=500)
@given(scene=scenes())
def test_cull_matches_brute_force(scene):
    spec, p = scene
    index = spec.obstacle_index
    rows = index.rows
    assert rows == tuple(obs.as_tuple() for obs in effective_obstacles(spec))
    # Cells hold the index's own row objects, so identity gives each one's index.
    position = {id(row): i for i, row in enumerate(rows)}
    listed = index.force_rows(p.x, p.y)
    ids = [position[id(row)] for row in listed]
    assert ids == sorted(set(ids))
    assert {id(row) for row in brute_force_acting(p, rows)} <= {id(row) for row in listed}
    for gx, gy in ((spec.goal.x, spec.goal.y), (p.x, p.y)):
        assert force_bits(p, gx, gy, listed) == force_bits(p, gx, gy, rows)
    mode = update_link_mode(p.x, p.y, LEADER, index, TopologyParams())
    assert mode == brute_force_mode(p, rows)


def with_far_decoys(spec, n, seed):
    """spec plus n posts at 5.5 <= |y| <= 8 m, out of every drone's reach."""
    rng = random.Random(seed)
    post = spec.obstacles[0]
    decoys = tuple(
        Obstacle(Vec2(rng.uniform(-1.0, 14.0), rng.uniform(5.5, 8.0) * rng.choice((-1, 1))),
                 post.radius, post.r_apf, post.r_imp)
        for _ in range(n))
    return dataclasses.replace(spec, obstacles=spec.obstacles + decoys)


def counted_run(spec, monkeypatch):
    """The run and its number of repulsion evaluations: total_force evaluates
    each row it is handed exactly once, so count the rows leader_step hands it."""
    calls = [0]
    original = apf.total_force

    def counted(x, y, gx, gy, obstacles, params):
        calls[0] += len(obstacles)
        return original(x, y, gx, gy, obstacles, params)

    with monkeypatch.context() as m:
        m.setattr(apf, "total_force", counted)  # the name leader_step calls it by
        trace = run(spec, SWARMPATH)
    return trace, calls[0]


def test_far_decoys_change_no_byte_and_no_force_evaluation(monkeypatch):
    spec = read_scenario(SCENARIO_DIR / "case2_forest.json")
    dense = with_far_decoys(spec, 1000, seed=7)
    assert len(effective_obstacles(dense)) == len(effective_obstacles(spec)) + 1000
    trace, calls = counted_run(spec, monkeypatch)
    dense_trace, dense_calls = counted_run(dense, monkeypatch)
    # The decoys really are out of range of every drone and the leader.
    points = np.concatenate([dense_trace.positions.reshape(-1, 2),
                             dense_trace.leader])
    for obs in dense.obstacles[len(spec.obstacles):]:
        gap = np.min(np.linalg.norm(points - obs.center.as_tuple(), axis=1)) - obs.radius
        assert gap > obs.r_apf
    assert trace.outcome == "completed"
    assert render_trace_csv(dense_trace) == render_trace_csv(trace)
    assert calls > 0
    assert dense_calls == calls


def test_singularity_still_raised_at_obstacle_center():
    obs = Obstacle(Vec2(2.0, 0.0), 0.1, 0.6, 0.3)
    spec = ScenarioSpec(start=Vec2(0.0, 0.0), goal=Vec2(4.0, 0.0), obstacles=(obs,))
    assert spec.obstacle_index.force_rows(obs.center.x, obs.center.y) == (obs.as_tuple(),)
    with pytest.raises(SingularityError):
        leader_step((obs.center.x, obs.center.y, False), spec.goal.x, spec.goal.y, spec)


def test_forest_cells_list_only_touching_reach_disks():
    obstacles = effective_obstacles(read_scenario(SCENARIO_DIR / "case2_forest.json"))
    rows = tuple(obs.as_tuple() for obs in obstacles)
    for cell, reach in _grid_reaches(obstacles):
        listed = _grid(rows, cell, reach)
        assert listed
        for (kx, ky), ids in listed.items():
            assert ids == sorted(set(ids))
            for i in ids:
                cx, cy = rows[i][:2]
                gap = math.hypot(max(kx * cell - cx, 0.0, cx - (kx + 1) * cell),
                                 max(ky * cell - cy, 0.0, cy - (ky + 1) * cell))
                assert gap <= reach[i] + GRID_MARGIN * (abs(cx) + abs(cy) + reach[i])


def test_baseline_forest_force_query_lists_few_rows(monkeypatch):
    # The padded reach box listed 9.22 rows per query here; the disk rule ~2.8.
    spec = read_scenario(SCENARIO_DIR / "case2_forest.json")
    sizes = []
    force_rows = ObstacleIndex.force_rows

    def counted(self, x, y):
        out = force_rows(self, x, y)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(ObstacleIndex, "force_rows", counted)
    assert run(spec, CONVENTIONAL_APF).outcome == "completed"
    assert len(sizes) > 1000
    assert sum(sizes) / len(sizes) < 4.0
