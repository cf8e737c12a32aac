"""Scenario model: geometry, parameter blocks, the validated JSON loader, and
the per-spec obstacle grid index.

A scenario is a flat JSON document.  Everything downstream (planner,
controllers, simulator) consumes the frozen ScenarioSpec built here, so all
structural and numeric validation lives in the loader rather than being
scattered across the dynamics code.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

SURFACE_EPS = 1e-6   # repulsion clamps the surface distance at this, m


class ScenarioError(ValueError):
    """Base class for scenario document problems."""


class ScenarioParseError(ScenarioError):
    """Malformed document: bad JSON, wrong shape, unknown or missing keys."""


class ScenarioValidationError(ScenarioError):
    """Well-formed document that violates a scenario invariant."""


@dataclass(frozen=True)
class Vec2:
    """Immutable 2D vector, metres."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite vector ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scale: float) -> "Vec2":
        return Vec2(self.x * scale, self.y * scale)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Obstacle:
    """Circular obstacle with two influence radii around the physical body.

    radius is the hard body.  r_apf is where the repulsive potential of the
    global planner starts acting and r_imp is where a follower hands its
    impedance link over to the obstacle, so radius < r_imp <= r_apf keeps the
    local reaction inside the planner's awareness zone.
    """

    center: Vec2
    radius: float  # body radius, m
    r_apf: float   # repulsion onset distance from the surface, m
    r_imp: float   # link handover distance from the surface, m

    def surface_distance(self, p: Vec2) -> float:
        """Distance from p to the body surface; negative means inside."""
        return p.dist(self.center) - self.radius

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        """(cx, cy, radius, r_apf, r_imp), the form the step functions read."""
        return (self.center.x, self.center.y, self.radius, self.r_apf, self.r_imp)


FORCE_CELL_FRACTION = 0.5  # force grid cell as a fraction of the largest force reach
GRID_MARGIN = 1e-12        # reach disks are widened by this times their coordinates' magnitude


class ObstacleIndex:
    """Uniform grids over an obstacle tuple, for exact culling of per-step scans.

    Two grids, one per question.  For the force sum obstacle i reaches
    radius_i + r_apf_i from its center, since beyond its r_apf its repulsion
    is exactly zero.  For link acquisition every obstacle reaches radius_i + R
    with R the largest r_imp, since beyond R it can be neither acquired nor
    beat an obstacle that can.  The force grid's cell is FORCE_CELL_FRACTION
    of its largest reach, the link grid's cell is its largest reach.  Each
    obstacle is listed, in index order, in every cell whose rectangle its
    reach disk touches.  The disk is widened by GRID_MARGIN times
    |cx| + |cy| + reach, far above the rounding of the distance and cell
    arithmetic on either side, so rounding can never drop an obstacle that
    acts.  A query is one dict lookup.  Rows and cells hold each obstacle as
    its as_tuple().
    """

    def __init__(self, obstacles: tuple[Obstacle, ...]):
        self.obstacles = obstacles
        self.rows = rows = tuple(obs.as_tuple() for obs in obstacles)
        (self.cell, force_reach), (self.link_cell, link_reach) = _grid_reaches(obstacles)
        self._force_cells = {key: tuple(map(rows.__getitem__, ids))
                             for key, ids in _grid(rows, self.cell, force_reach).items()}
        self._link_cells = {key: (tuple(ids), tuple(map(rows.__getitem__, ids)))
                            for key, ids in _grid(rows, self.link_cell, link_reach).items()}

    def candidates(self, x: float, y: float) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
        """(indices, rows) of the link grid's cell of (x, y), ascending by index.

        They include every obstacle whose surface is closer than the largest
        r_imp.
        """
        cell = self.link_cell
        return self._link_cells.get((x // cell, y // cell), ((), ()))

    def force_rows(self, x: float, y: float) -> tuple[tuple, ...]:
        """Rows of the force grid's cell of (x, y), ascending by index.

        They include every obstacle whose repulsion at (x, y) is not zero, and
        every obstacle whose center is (x, y).
        """
        cell = self.cell
        return self._force_cells.get((x // cell, y // cell), ())


def _grid_reaches(obstacles) -> list[tuple[float, list[float]]]:
    """(cell size, per-obstacle reach) of the force grid, then of the link grid."""
    r_imp_max = max((o.r_imp for o in obstacles), default=0.0)
    force = [o.radius + o.r_apf for o in obstacles]
    link = [o.radius + r_imp_max for o in obstacles]
    return [(FORCE_CELL_FRACTION * max(force, default=1.0), force),
            (max(link, default=1.0), link)]


def _grid(rows: tuple[tuple, ...], cell: float, reach: list[float]) -> dict:
    """Indices listed per cell: i, ascending, in every cell its widened reach[i] disk touches.

    Each column's cells span the disk's half-chord over that column.  Cell
    numbers stay inside the reach box padded by one cell, which also bounds
    the loops where a huge magnitude makes the margin or the chord overflow.
    """
    members: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, ((cx, cy, _, _, _), r) in enumerate(zip(rows, reach)):
        disk = r + GRID_MARGIN * (abs(cx) + abs(cy) + r)
        box_lo, box_hi = int((cx - r) // cell) - 1, int((cx + r) // cell) + 1
        ky_lo, ky_hi = int((cy - r) // cell) - 1, int((cy + r) // cell) + 1
        # Each "if not" also takes the box bound where a disk bound is nan.
        kx_lo, kx_hi = (cx - disk) // cell, (cx + disk) // cell
        if not kx_lo >= box_lo:
            kx_lo = box_lo
        if not kx_hi <= box_hi:
            kx_hi = box_hi
        for kx in range(int(kx_lo), int(kx_hi) + 1):
            left = kx * cell
            gap = left - cx if left > cx else cx - (left + cell)
            if gap > 0.0:
                if not gap <= disk:
                    continue
                chord = math.sqrt((disk - gap) * (disk + gap))
            else:
                chord = disk
            lo, hi = (cy - chord) // cell, (cy + chord) // cell
            if not lo >= ky_lo:
                lo = ky_lo
            if not hi <= ky_hi:
                hi = ky_hi
            for ky in range(int(lo), int(hi) + 1):
                members[kx, ky].append(i)
    return members


@dataclass(frozen=True)
class Gate:
    """Narrow passage bounded by two pole obstacles."""

    pole_a: Obstacle
    pole_b: Obstacle


@dataclass(frozen=True)
class ImpedanceParams:
    """Mass-spring-damper coefficients of a follower link."""

    m: float = 1.9    # kg
    d: float = 12.6   # N s/m
    k: float = 20.88  # N/m


@dataclass(frozen=True)
class ApfParams:
    """Potential-field planner gains and leader kinematics."""

    k_att: float = 1.0
    k_rep: float = 0.3
    leader_speed: float = 0.5   # m/s, constant descent speed
    goal_threshold: float = 0.1  # m


@dataclass(frozen=True)
class TopologyParams:
    """Link-switching and deflection parameters shared by all followers."""

    k_impF: float = 0.5       # deflection force coefficient, dimensionless
    hysteresis: float = 0.1   # release at r_imp * (1 + hysteresis)
    velocity_gain: float = 0.0  # speed-dependent deflection scaling, s/m


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete, validated description of one simulation run."""

    start: Vec2
    goal: Vec2
    obstacles: tuple[Obstacle, ...] = ()
    gates: tuple[Gate, ...] = ()
    formation_offsets: tuple[Vec2, ...] = (
        Vec2(0.4, 0.4), Vec2(0.4, -0.4), Vec2(-0.4, 0.4), Vec2(-0.4, -0.4),
    )
    impedance: ImpedanceParams = field(default_factory=ImpedanceParams)
    apf: ApfParams = field(default_factory=ApfParams)
    topology: TopologyParams = field(default_factory=TopologyParams)
    dt: float = 0.01      # s
    max_steps: int = 5000

    @cached_property
    def obstacle_index(self) -> ObstacleIndex:
        """Grid index over effective_obstacles(self), built on first use.

        Cached in the instance dict; equality, hash and repr see only the
        dataclass fields.
        """
        poles = tuple(pole for gate in self.gates for pole in (gate.pole_a, gate.pole_b))
        return ObstacleIndex(self.obstacles + poles)


def effective_obstacles(spec: ScenarioSpec) -> tuple[Obstacle, ...]:
    """All obstacles the controllers see: plain ones first, then gate poles.

    Gate poles are ordinary obstacles to the dynamics; the gate grouping only
    matters for traversal metrics.  The order here defines the obstacle index
    used by link modes and trace files.  The tuple is built once per spec.
    """
    return spec.obstacle_index.obstacles


def validate_spec(spec: ScenarioSpec) -> None:
    """Raise ScenarioValidationError naming the first violated invariant."""
    def fail(msg: str) -> None:
        raise ScenarioValidationError(msg)

    labelled = list(_labelled_obstacles(spec))
    for label, obs in labelled:
        if not obs.radius > 0:
            fail(f"{label}: body radius must be > 0, got {obs.radius}")
        if not obs.radius < obs.r_imp:
            fail(f"{label}: requires radius < r_imp, got radius={obs.radius} r_imp={obs.r_imp}")
        if not obs.r_imp <= obs.r_apf:
            fail(f"{label}: requires r_imp <= r_apf, got r_imp={obs.r_imp} r_apf={obs.r_apf}")
    # ObstacleIndex needs a finite cell number for every reach box edge; the
    # farthest edge from the origin is max(|cx|, |cy|) + reach.
    for cell, reach in _grid_reaches([obs for _, obs in labelled]):
        for (label, obs), r in zip(labelled, reach):
            c = obs.center
            if not math.isfinite((max(abs(c.x), abs(c.y)) + r) / cell):
                fail(f"{label}: center ({c.x}, {c.y}) +/- reach {r} overflows the "
                     f"obstacle grid (cell {cell})")
    for g, gate in enumerate(spec.gates):
        gap = gate.pole_a.center.dist(gate.pole_b.center) - gate.pole_a.radius - gate.pole_b.radius
        if not gap > 0:
            fail(f"gates[{g}]: pole bodies must not touch, surface gap is {gap}")
    if len(spec.formation_offsets) == 0:
        fail("formation_offsets: at least one drone is required")
    if len(set(o.as_tuple() for o in spec.formation_offsets)) != len(spec.formation_offsets):
        fail("formation_offsets: offsets must be pairwise distinct")
    imp = spec.impedance
    if not (0 < imp.m < math.inf and 0 < imp.d < math.inf and 0 < imp.k < math.inf):
        fail("impedance: m, d, k must all be > 0 and finite, got "
             f"m={imp.m} d={imp.d} k={imp.k}")
    apf = spec.apf
    if not (apf.k_att > 0 and apf.k_rep > 0):
        fail(f"apf: k_att and k_rep must be > 0, got k_att={apf.k_att} k_rep={apf.k_rep}")
    if not (apf.leader_speed > 0 and apf.goal_threshold > 0):
        fail("apf: leader_speed and goal_threshold must be > 0, got "
             f"leader_speed={apf.leader_speed} goal_threshold={apf.goal_threshold}")
    top = spec.topology
    if not top.k_impF >= 0:
        fail(f"topology: k_impF must be >= 0, got {top.k_impF}")
    if not top.hysteresis >= 0:
        fail(f"topology: hysteresis must be >= 0, got {top.hysteresis}")
    if not top.velocity_gain >= 0:
        fail(f"topology: velocity_gain must be >= 0, got {top.velocity_gain}")
    if not 0 < spec.dt < math.inf:
        fail(f"dt must be > 0 and finite, got {spec.dt}")
    if not spec.max_steps > 0:
        fail(f"max_steps must be > 0, got {spec.max_steps}")


def _labelled_obstacles(spec: ScenarioSpec):
    for i, obs in enumerate(spec.obstacles):
        yield f"obstacles[{i}]", obs
    for g, gate in enumerate(spec.gates):
        yield f"gates[{g}].pole_a", gate.pole_a
        yield f"gates[{g}].pole_b", gate.pole_b


_TOP_KEYS = {f.name for f in fields(ScenarioSpec)}


def load_scenario(text: str) -> ScenarioSpec:
    """Parse and validate a scenario JSON document.

    Raises ScenarioParseError for malformed documents and
    ScenarioValidationError when a numeric invariant is violated.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ScenarioParseError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("start", "goal"):
        if key not in doc:
            raise ScenarioParseError(f"missing required key '{key}'")

    spec = ScenarioSpec(
        start=_vec(doc["start"], "start"),
        goal=_vec(doc["goal"], "goal"),
        obstacles=tuple(
            _obstacle(o, f"obstacles[{i}]")
            for i, o in enumerate(_list(doc.get("obstacles", []), "obstacles"))
        ),
        gates=tuple(
            _gate(g, f"gates[{i}]")
            for i, g in enumerate(_list(doc.get("gates", []), "gates"))
        ),
        formation_offsets=_offsets(doc),
        impedance=_block(doc, "impedance", ImpedanceParams),
        apf=_block(doc, "apf", ApfParams),
        topology=_block(doc, "topology", TopologyParams),
        dt=_number(doc.get("dt", 0.01), "dt"),
        max_steps=_int(doc.get("max_steps", 5000), "max_steps"),
    )
    validate_spec(spec)
    return spec


def read_scenario(path) -> ScenarioSpec:
    """load_scenario on the contents of a file."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Render a spec back to canonical JSON (load(serialize(s)) == s)."""
    doc = {
        "start": list(spec.start.as_tuple()),
        "goal": list(spec.goal.as_tuple()),
        "obstacles": [_obstacle_doc(o) for o in spec.obstacles],
        "gates": [
            {"pole_a": _obstacle_doc(g.pole_a), "pole_b": _obstacle_doc(g.pole_b)}
            for g in spec.gates
        ],
        "formation_offsets": [list(o.as_tuple()) for o in spec.formation_offsets],
        "impedance": asdict(spec.impedance),
        "apf": asdict(spec.apf),
        "topology": asdict(spec.topology),
        "dt": spec.dt,
        "max_steps": spec.max_steps,
    }
    return json.dumps(doc, indent=2) + "\n"


def _obstacle_doc(obs: Obstacle) -> dict:
    return {
        "center": list(obs.center.as_tuple()),
        "radius": obs.radius,
        "r_apf": obs.r_apf,
        "r_imp": obs.r_imp,
    }


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{label} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ScenarioParseError(f"{label} must be finite, got {value!r}")
    return out


def _int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{label} must be an integer, got {value!r}")
    return value


def _list(value, label: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{label} must be an array, got {value!r}")
    return value


def _vec(value, label: str) -> Vec2:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioParseError(f"{label} must be a [x, y] pair, got {value!r}")
    return Vec2(_number(value[0], f"{label}[0]"), _number(value[1], f"{label}[1]"))


def _obstacle(value, label: str) -> Obstacle:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{label} must be an object, got {value!r}")
    required = {"center", "radius", "r_apf", "r_imp"}
    if set(value) != required:
        raise ScenarioParseError(
            f"{label} must have exactly keys {sorted(required)}, got {sorted(value)}")
    return Obstacle(
        center=_vec(value["center"], f"{label}.center"),
        radius=_number(value["radius"], f"{label}.radius"),
        r_apf=_number(value["r_apf"], f"{label}.r_apf"),
        r_imp=_number(value["r_imp"], f"{label}.r_imp"),
    )


def _gate(value, label: str) -> Gate:
    if not isinstance(value, dict) or set(value) != {"pole_a", "pole_b"}:
        raise ScenarioParseError(f"{label} must be an object with pole_a and pole_b")
    return Gate(
        pole_a=_obstacle(value["pole_a"], f"{label}.pole_a"),
        pole_b=_obstacle(value["pole_b"], f"{label}.pole_b"),
    )


def _offsets(doc: dict) -> tuple[Vec2, ...]:
    if "formation_offsets" not in doc:
        return ScenarioSpec.__dataclass_fields__["formation_offsets"].default
    raw = _list(doc["formation_offsets"], "formation_offsets")
    return tuple(_vec(v, f"formation_offsets[{i}]") for i, v in enumerate(raw))


def _block(doc: dict, name: str, cls):
    """Build a parameter block, filling unspecified fields from defaults."""
    if name not in doc:
        return cls()
    raw = doc[name]
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{name} must be an object, got {raw!r}")
    names = [f.name for f in fields(cls)]
    unknown = set(raw) - set(names)
    if unknown:
        raise ScenarioParseError(f"unknown {name} keys: {sorted(unknown)}")
    kwargs = {f: _number(raw[f], f"{name}.{f}") for f in names if f in raw}
    return cls(**kwargs)
