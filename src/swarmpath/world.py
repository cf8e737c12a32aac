"""Scenario model: geometry, parameter blocks, the validated JSON codec, and
the per-spec obstacle grid index.

A scenario is a JSON object whose keys are the ScenarioSpec fields.  A Vec2
is an [x, y] pair, a tuple an array, and an Obstacle, Gate or parameter block
an object keyed by its own fields.  At every depth a field without a default
is a required key (start and goal; center, radius, r_apf and r_imp of each
obstacle; pole_a and pole_b of each gate), a field with a default is an
optional key, and any other key is an error.  One decoder and one encoder walk
the dataclass fields, and validate_spec checks the POSITIVE or NON_NEGATIVE
bound in their metadata, so a field is written only in its dataclass.

Everything downstream (planner, controllers, simulator) consumes the frozen
ScenarioSpec built here, so all structural and numeric validation lives in
the loader rather than being scattered across the dynamics code.
"""

from __future__ import annotations

import json
import math
import operator
import reprlib
import typing
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache, cached_property

SURFACE_EPS = 1e-6   # repulsion clamps the surface distance at this, m
NO_CANDIDATES = ((), ())  # the (indices, rows) of a link cell that lists no obstacle

# Field bounds, as dataclass field metadata; validate_spec checks every one.
POSITIVE = {"bound": (operator.lt, "> 0")}       # 0 < v < inf
NON_NEGATIVE = {"bound": (operator.le, ">= 0")}  # 0 <= v < inf
# The value an error quotes, cut to a few dozen characters at any size or depth.
_show = reprlib.Repr().repr


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
    radius: float = field(metadata=POSITIVE)  # body radius, m
    r_apf: float   # repulsion onset distance from the surface, m
    r_imp: float   # link handover distance from the surface, m

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

    link_cells is the link grid that candidates() reads, public so a hot
    loop can make the same lookup without the call: it maps (x // link_cell,
    y // link_cell) to the cell's (indices, rows), and a cell it does not
    list is empty.  Treat it as read-only.
    """

    def __init__(self, obstacles: tuple[Obstacle, ...]):
        self.obstacles = obstacles
        self.rows = rows = tuple(obs.as_tuple() for obs in obstacles)
        (self.cell, force_reach), (self.link_cell, link_reach) = _grid_reaches(obstacles)
        self._force_cells = {key: tuple(map(rows.__getitem__, ids))
                             for key, ids in _grid(rows, self.cell, force_reach).items()}
        self.link_cells = {key: (tuple(ids), tuple(map(rows.__getitem__, ids)))
                           for key, ids in _grid(rows, self.link_cell, link_reach).items()}

    def candidates(self, x: float, y: float) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
        """(indices, rows) of the link grid's cell of (x, y), ascending by index.

        They include every obstacle whose surface is closer than the largest
        r_imp.
        """
        cell = self.link_cell
        return self.link_cells.get((x // cell, y // cell), NO_CANDIDATES)

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

    m: float = field(default=1.9, metadata=POSITIVE)    # kg
    d: float = field(default=12.6, metadata=POSITIVE)   # N s/m
    k: float = field(default=20.88, metadata=POSITIVE)  # N/m


@dataclass(frozen=True)
class ApfParams:
    """Potential-field planner gains and leader kinematics."""

    k_att: float = field(default=1.0, metadata=POSITIVE)
    k_rep: float = field(default=0.3, metadata=POSITIVE)
    leader_speed: float = field(default=0.5, metadata=POSITIVE)    # m/s, constant descent speed
    goal_threshold: float = field(default=0.1, metadata=POSITIVE)  # m


@dataclass(frozen=True)
class TopologyParams:
    """Link-switching and deflection parameters shared by all followers."""

    k_impF: float = field(default=0.5, metadata=NON_NEGATIVE)  # deflection force coefficient
    hysteresis: float = field(default=0.1, metadata=NON_NEGATIVE)  # release at r_imp * (1 + h)
    velocity_gain: float = field(default=0.0, metadata=NON_NEGATIVE)  # deflection speed scale, s/m


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
    dt: float = field(default=0.01, metadata=POSITIVE)  # s
    max_steps: int = field(default=5000, metadata=POSITIVE)

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


def validate_spec(spec: ScenarioSpec, label: str | None = None) -> None:
    """Raise ScenarioValidationError naming the first violated invariant, bounds first.

    label is the spec's key in an enclosing document, such as values[1] in a
    sweep; it prefixes every key an error names, as in _decode.
    """
    def fail(key: str, msg: str) -> None:
        raise ScenarioValidationError(f"{key}: {msg}")

    prefix = "" if label is None else f"{label}."

    labelled = list(_checked_obstacles(spec, label))
    for key, obs in labelled:
        if not obs.radius < obs.r_imp:
            fail(key, f"requires radius < r_imp, got radius={obs.radius} r_imp={obs.r_imp}")
        if not obs.r_imp <= obs.r_apf:
            fail(key, f"requires r_imp <= r_apf, got r_imp={obs.r_imp} r_apf={obs.r_apf}")
    # ObstacleIndex needs a finite cell number for every reach box edge; the
    # farthest edge from the origin is max(|cx|, |cy|) + reach.
    for cell, reach in _grid_reaches([obs for _, obs in labelled]):
        for (key, obs), r in zip(labelled, reach):
            c = obs.center
            if not math.isfinite((max(abs(c.x), abs(c.y)) + r) / cell):
                fail(key, f"center ({c.x}, {c.y}) +/- reach {r} overflows the "
                          f"obstacle grid (cell {cell})")
    for g, gate in enumerate(spec.gates):
        gap = gate.pole_a.center.dist(gate.pole_b.center) - gate.pole_a.radius - gate.pole_b.radius
        if not gap > 0:
            fail(f"{prefix}gates[{g}]", f"pole bodies must not touch, surface gap is {gap}")
    if len(spec.formation_offsets) == 0:
        fail(f"{prefix}formation_offsets", "at least one drone is required")
    if len(set(o.as_tuple() for o in spec.formation_offsets)) != len(spec.formation_offsets):
        fail(f"{prefix}formation_offsets", "offsets must be pairwise distinct")


def _checked_obstacles(value, label: str | None):
    """Check every field bound in value at every depth; yield (label, obstacle) per Obstacle."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _checked_obstacles(item, f"{label}[{i}]")
        return
    for name, (_, _, bound, nested) in _schema(type(value)).items():
        v = getattr(value, name)
        if bound is not None and not (bound[0](0, v) and v < math.inf):
            where = "" if label is None else f"{label}: "
            raise ScenarioValidationError(
                f"{where}{name}={_show(v)} must be {bound[1]} and finite")
        if nested:
            yield from _checked_obstacles(v, name if label is None else f"{label}.{name}")
    if isinstance(value, Obstacle):
        yield label, value


def load_scenario(text: str) -> ScenarioSpec:
    """Parse and validate a scenario JSON document.

    Raises ScenarioParseError for malformed documents and
    ScenarioValidationError when a numeric invariant is violated.
    """
    spec = _decode(ScenarioSpec, _parse_json(text), None)
    validate_spec(spec)
    return spec


def read_scenario(path) -> ScenarioSpec:
    """load_scenario on the contents of a file."""
    return load_scenario(_read(path, "scenario"))


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Render a spec back to canonical JSON (load(serialize(s)) == s)."""
    return json.dumps(_encode(spec), indent=2) + "\n"


def _parse_json(text: str):
    """json.loads, with every way it can fail raised as ScenarioParseError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, over-long int, deep nesting
        raise ScenarioParseError(f"invalid JSON: {exc}") from None


def _read(path, what: str) -> str:
    """Contents of a UTF-8 file; any failure to read it is a ScenarioParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # missing file, NUL in path, not UTF-8
        raise ScenarioParseError(f"cannot read {what} {path}: {exc}") from None


@cache
def _schema(cls) -> dict[str, tuple[type, bool, tuple | None, bool]]:
    """{name: (type, required, bound, nested)} over the fields of a dataclass, in field order."""
    hints, schema = typing.get_type_hints(cls), {}
    for f in fields(cls):
        tp = hints[f.name]
        item = typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else tp
        schema[f.name] = (tp, f.default is MISSING and f.default_factory is MISSING,
                          f.metadata.get("bound"), is_dataclass(item) and item is not Vec2)
    return schema


def _decode(tp, value, label: str | None):
    """The tp that a JSON value stands for; label names it in errors (None: the top level).

    Vec2 is [x, y], tuple[X, ...] an array, float and int a number and an
    integer, Literal[...] one of its arguments, and any other dataclass an
    object (or an instance, taken as it is).  An object needs a key for each
    field without a default, may have one for each field with one, and no other.
    """
    if tp is float:
        return _number(value, label)
    if tp is int:
        return _int(value, label)
    if tp is Vec2:
        if not (isinstance(value, list) and len(value) == 2):
            raise ScenarioParseError(f"{label} must be a [x, y] pair, got {_show(value)}")
        return Vec2(_number(value[0], f"{label}[0]"), _number(value[1], f"{label}[1]"))
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ScenarioParseError(f"{label} must be an array, got {_show(value)}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{label}[{i}]") for i, v in enumerate(value))
    if typing.get_origin(tp) is typing.Literal:
        choices = typing.get_args(tp)
        if value not in choices:
            raise ScenarioParseError(f"{label} must be one of {choices}, got {_show(value)}")
        return value
    if isinstance(value, tp):
        return value
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{label or 'top level'} must be an object, got {_show(value)}")
    types = _schema(tp)
    unknown = value.keys() - types.keys()
    if unknown:
        raise ScenarioParseError(f"unknown {label or 'top-level'} keys: {sorted(unknown)}")
    kwargs = {}
    for name, (field_type, required, _, _) in types.items():
        key = name if label is None else f"{label}.{name}"
        if name in value:
            kwargs[name] = _decode(field_type, value[name], key)
        elif required:
            raise ScenarioParseError(f"missing required key '{key}'")
    return tp(**kwargs)


def _encode(value):
    """The JSON value of a spec or any part of it; the inverse of _decode."""
    if isinstance(value, Vec2):
        return [value.x, value.y]
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if is_dataclass(value):
        return {name: _encode(getattr(value, name)) for name in _schema(type(value))}
    return value


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{label} must be a number, got {_show(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond float range
        out = math.inf
    if not math.isfinite(out):
        raise ScenarioParseError(f"{label} must be finite, got {_show(value)}")
    return out


def _int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{label} must be an integer, got {_show(value)}")
    return value
