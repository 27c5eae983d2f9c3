"""Goal-pose generators for repetitive assembly layouts.

Every layout is described relative to a base pose: the pose the first
placed object should take.  Generators walk a recurrence from that pose,
so moving the base rigidly moves the whole pattern.

Index conventions follow the recurrences.  Straight and curved walls
emit goals as (1, j, k) with j counting along a layer and k counting
layers up.  Corner walls emit (i, 1, k) with i counting along the layer.
Ceiling grids emit (i, j, 1) row-major with i the row (breadth axis) and
j the column (length axis).
"""

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .records import (FORMATS, UNITS, Format, InputError, decode, instance,
                      pose_from_record, pose_to_record, real, reals, whole,
                      wholes)
from .screws import Pose, compose


class InvalidLayoutError(InputError):
    pass


class LayoutKind(Enum):
    STRAIGHT_WALL = "straight_wall"
    CURVED_WALL = "curved_wall"
    CORNER_WALL = "corner_wall"
    CEILING_GRID = "ceiling_grid"


@dataclass(frozen=True)
class ObjectDims:
    """Rigid cuboid dimensions: length along x, breadth along y, width
    along z of the object frame."""

    length: float
    breadth: float
    width: float

    def __post_init__(self):
        for name in ("length", "breadth", "width"):
            x = real(getattr(self, name), name, InvalidLayoutError)
            if x <= 0.0:
                raise InvalidLayoutError("object dimensions must be positive")
            object.__setattr__(self, name, x)


def translation_x(t):
    return Pose(np.eye(3), np.array([float(t), 0.0, 0.0]))


def translation_y(t):
    return Pose(np.eye(3), np.array([0.0, float(t), 0.0]))


def translation_z(t):
    return Pose(np.eye(3), np.array([0.0, 0.0, float(t)]))


def yaw_rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return Pose(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                np.zeros(3))


def delta_offset(x, y):
    """y when x is even, else 0; the parity gate used by the wall
    recurrences."""
    return y if x % 2 == 0 else 0.0


@dataclass(frozen=True)
class LayoutSpec:
    kind: LayoutKind
    base: Pose
    dims: ObjectDims
    layers: int
    per_layer: int
    layer_offset: tuple = (0.0, 0.0)
    spacing: tuple = (0.0, 0.0, 0.0)  # along length, breadth, width
    per_step_yaw: float = 0.0
    corner_index: int | None = None
    offset_parity: str = "even"

    def __post_init__(self):
        for name, kind in (("kind", LayoutKind), ("base", Pose),
                           ("dims", ObjectDims)):
            instance(getattr(self, name), kind, name, InvalidLayoutError)
        for name in ("layers", "per_layer"):
            object.__setattr__(self, name, whole(
                getattr(self, name), name, InvalidLayoutError, low=1))
        spacing = reals(self.spacing, "spacing", InvalidLayoutError, 3)
        if min(spacing) < 0.0:
            raise InvalidLayoutError("spacing must be three nonnegative gaps")
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "layer_offset", reals(
            self.layer_offset, "layer_offset", InvalidLayoutError, 2))
        object.__setattr__(self, "per_step_yaw", real(
            self.per_step_yaw, "per_step_yaw", InvalidLayoutError))
        if self.offset_parity not in ("even", "odd"):
            raise InvalidLayoutError("offset_parity must be 'even' or 'odd'")
        if self.kind is LayoutKind.CURVED_WALL:
            if self.per_step_yaw == 0.0:
                raise InvalidLayoutError("curved wall needs per_step_yaw")
        elif self.per_step_yaw != 0.0:
            raise InvalidLayoutError(
                "per_step_yaw only applies to curved walls")
        if self.kind is LayoutKind.CORNER_WALL:
            c = whole(self.corner_index, "corner_index", InvalidLayoutError,
                      low=1)
            if c > self.per_layer:
                raise InvalidLayoutError(
                    "corner wall needs a corner_index in [1, per_layer]")
            object.__setattr__(self, "corner_index", c)
        elif self.corner_index is not None:
            raise InvalidLayoutError(
                "corner_index only applies to corner walls")


@dataclass(frozen=True)
class LayoutGoal:
    i: int
    j: int
    k: int
    pose: Pose


def _require_kind(spec, *kinds):
    if spec.kind not in kinds:
        raise InvalidLayoutError(
            f"{spec.kind.value} layout not supported by this generator")


def _layer_shift(spec, k, d):
    """Relative in-plane shift applied when lifting to layer k.

    The absolute offset of a layer is d on offset layers and 0 on the
    others, so the shift alternates sign and layers two apart realign.
    """
    def absolute(layer):
        parity = 0 if spec.offset_parity == "even" else 1
        return d if layer % 2 == parity else 0.0

    return absolute(k) - absolute(k - 1)


def _layer_starts(spec):
    """First-object pose of each layer: lift by one object width plus
    bed gap, shifted in the layer plane by the running-bond offset.  The
    lift carries no yaw, so layers stay registered above each other."""
    lift = spec.dims.width + spec.spacing[2]
    starts = [spec.base]
    for k in range(2, spec.layers + 1):
        sx = _layer_shift(spec, k, spec.layer_offset[0])
        sy = _layer_shift(spec, k, spec.layer_offset[1])
        step = compose(translation_z(lift), translation_x(sx))
        step = compose(step, translation_y(sy))
        starts.append(compose(starts[-1], step))
    return starts


def wall_goals(spec):
    """Straight or curved wall.  Within a layer each object follows the
    previous one by a pitch of length + gap along x, then the per-step
    yaw (zero for a straight wall)."""
    _require_kind(spec, LayoutKind.STRAIGHT_WALL, LayoutKind.CURVED_WALL)
    pitch = spec.dims.length + spec.spacing[0]
    step = compose(translation_x(pitch), yaw_rotation(spec.per_step_yaw))
    goals = []
    for k, start in enumerate(_layer_starts(spec), start=1):
        pose = start
        for j in range(1, spec.per_layer + 1):
            if j > 1:
                pose = compose(pose, step)
            goals.append(LayoutGoal(1, j, k, pose))
    return goals


def corner_wall_goals(spec):
    """Wall that turns ninety degrees at one object.

    Step i applies X(delta(i + 1, s)) then Y(delta(i, s)) with
    s = (length + breadth) / 2 + gap, then the corner yaw when i is the
    corner object.  The parity gate fires exactly one of the two
    translations per step.
    """
    _require_kind(spec, LayoutKind.CORNER_WALL)
    s = (spec.dims.length + spec.dims.breadth) / 2.0 + spec.spacing[0]
    goals = []
    for k, start in enumerate(_layer_starts(spec), start=1):
        pose = start
        for i in range(1, spec.per_layer + 1):
            if i > 1:
                step = compose(translation_x(delta_offset(i + 1, s)),
                               translation_y(delta_offset(i, s)))
                if i == spec.corner_index:
                    step = compose(step, yaw_rotation(math.pi / 2.0))
                pose = compose(pose, step)
            goals.append(LayoutGoal(i, 1, k, pose))
    return goals


def ceiling_goals(spec):
    """Flat grid of tiles sharing the base orientation, row-major.
    Rows advance along y by breadth + gap, columns along x by
    length + gap."""
    _require_kind(spec, LayoutKind.CEILING_GRID)
    col = spec.dims.length + spec.spacing[0]
    row = spec.dims.breadth + spec.spacing[1]
    goals = []
    for i in range(1, spec.layers + 1):
        for j in range(1, spec.per_layer + 1):
            offset = Pose(np.eye(3), np.array(
                [(j - 1) * col, (i - 1) * row, 0.0]))
            goals.append(LayoutGoal(i, j, 1, compose(spec.base, offset)))
    return goals


def layout_goals(spec):
    if spec.kind is LayoutKind.CORNER_WALL:
        return corner_wall_goals(spec)
    if spec.kind is LayoutKind.CEILING_GRID:
        return ceiling_goals(spec)
    return wall_goals(spec)


def pick_stack(base, count, dims):
    """Initial poses for a pile of count objects picked top-down: each
    successive pick sits one object width lower, the last at the base."""
    if count < 1:
        raise InvalidLayoutError("pick stack needs at least one object")
    return [compose(base, translation_z(dims.width * (count - 1 - n)))
            for n in range(count)]


def layout_spec_to_record(spec):
    return {
        "kind": spec.kind.value,
        "units": dict(UNITS),
        "base": pose_to_record(spec.base),
        "dims": asdict(spec.dims),
        "layers": spec.layers,
        "per_layer": spec.per_layer,
        "layer_offset": list(spec.layer_offset),
        "spacing": list(spec.spacing),
        "per_step_yaw": spec.per_step_yaw,
        "corner_index": spec.corner_index,
        "offset_parity": spec.offset_parity,
    }


def layout_spec_from_record(doc):
    return decode(doc, InvalidLayoutError, lambda doc: LayoutSpec(
        kind=LayoutKind(doc["kind"]),
        base=pose_from_record(doc["base"]),
        dims=ObjectDims(**doc["dims"]),
        layers=doc["layers"],
        per_layer=doc["per_layer"],
        layer_offset=doc["layer_offset"],
        spacing=doc["spacing"],
        per_step_yaw=doc.get("per_step_yaw", 0.0),
        corner_index=doc.get("corner_index"),
        offset_parity=doc.get("offset_parity", "even"),
    ), units=UNITS)


def _goals_to_record(goals):
    """Ordered goals as one JSON document of (indices, pose) entries."""
    return {"format": "goal_sequence", "units": {"length": "m"},
            "goals": [{"index": [g.i, g.j, g.k],
                       "pose": pose_to_record(g.pose)} for g in goals]}


def _goals_from_record(doc):
    return decode(doc, InvalidLayoutError, lambda doc: [
        LayoutGoal(*wholes(rec["index"], "index", InvalidLayoutError, 3),
                   pose=pose_from_record(rec["pose"]))
        for rec in doc["goals"]], "goal_sequence", {"length": "m"})


FORMATS.update(
    layout_spec=Format(InvalidLayoutError, layout_spec_to_record,
                       layout_spec_from_record, indent=2),
    goal_sequence=Format(InvalidLayoutError, _goals_to_record,
                         _goals_from_record))
