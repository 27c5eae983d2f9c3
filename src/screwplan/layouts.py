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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .screws import (Pose, compose, pose_from_record, pose_to_record,
                     read_document, write_document)


class InvalidLayoutError(ValueError):
    pass


class LengthMismatchError(ValueError):
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
        if min(self.length, self.breadth, self.width) <= 0.0:
            raise InvalidLayoutError("object dimensions must be positive")


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
        if self.layers < 1 or self.per_layer < 1:
            raise InvalidLayoutError("layers and per_layer must be >= 1")
        if len(self.spacing) != 3 or min(self.spacing) < 0.0:
            raise InvalidLayoutError("spacing must be three nonnegative gaps")
        if len(self.layer_offset) != 2:
            raise InvalidLayoutError("layer_offset must be (dx, dy)")
        if self.offset_parity not in ("even", "odd"):
            raise InvalidLayoutError("offset_parity must be 'even' or 'odd'")
        if self.kind is LayoutKind.CURVED_WALL:
            if self.per_step_yaw == 0.0:
                raise InvalidLayoutError("curved wall needs per_step_yaw")
        elif self.per_step_yaw != 0.0:
            raise InvalidLayoutError(
                "per_step_yaw only applies to curved walls")
        if self.kind is LayoutKind.CORNER_WALL:
            if self.corner_index is None or not (
                    1 <= self.corner_index <= self.per_layer):
                raise InvalidLayoutError(
                    "corner wall needs corner_index in [1, per_layer]")
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


def make_task_instances(goals, picks):
    from .demonstration import TaskInstance

    if len(goals) != len(picks):
        raise LengthMismatchError(
            f"{len(goals)} goals but {len(picks)} pick poses")
    return [TaskInstance(initial=p, goal=g.pose)
            for g, p in zip(goals, picks)]


def layout_spec_to_record(spec):
    return {
        "kind": spec.kind.value,
        "units": {"length": "m", "angle": "rad"},
        "base": pose_to_record(spec.base),
        "dims": {"length": spec.dims.length, "breadth": spec.dims.breadth,
                 "width": spec.dims.width},
        "layers": spec.layers,
        "per_layer": spec.per_layer,
        "layer_offset": list(spec.layer_offset),
        "spacing": list(spec.spacing),
        "per_step_yaw": spec.per_step_yaw,
        "corner_index": spec.corner_index,
        "offset_parity": spec.offset_parity,
    }


def layout_spec_from_record(doc):
    try:
        units = doc["units"]
        if units["length"] != "m" or units["angle"] != "rad":
            raise InvalidLayoutError(
                f"expected units m/rad, got {units}")
        kind = LayoutKind(doc["kind"])
        dims = ObjectDims(**doc["dims"])
        return LayoutSpec(
            kind=kind,
            base=pose_from_record(doc["base"]),
            dims=dims,
            layers=int(doc["layers"]),
            per_layer=int(doc["per_layer"]),
            layer_offset=tuple(doc["layer_offset"]),
            spacing=tuple(doc["spacing"]),
            per_step_yaw=float(doc.get("per_step_yaw", 0.0)),
            corner_index=doc.get("corner_index"),
            offset_parity=doc.get("offset_parity", "even"),
        )
    except InvalidLayoutError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidLayoutError(f"bad layout spec: {e}") from e


def save_layout_spec(spec, path):
    write_document(layout_spec_to_record(spec), path, indent=2)


def load_layout_spec(path):
    return layout_spec_from_record(read_document(path, InvalidLayoutError))


def save_goal_sequence(goals, path):
    """Ordered goals as one JSON document of (indices, pose) entries."""
    doc = {"format": "goal_sequence",
           "units": {"length": "m"},
           "goals": [{"index": [g.i, g.j, g.k],
                      "pose": pose_to_record(g.pose)} for g in goals]}
    write_document(doc, path)


def load_goal_sequence(path):
    doc = read_document(path, InvalidLayoutError, "goal_sequence")
    return [LayoutGoal(i=rec["index"][0], j=rec["index"][1],
                       k=rec["index"][2], pose=pose_from_record(rec["pose"]))
            for rec in doc["goals"]]
