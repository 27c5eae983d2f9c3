"""Ready-made demonstrations, activities and robot variants.

These builders wire the library together into worked, desk-scale
scenarios: brick walls grown from one synthetic pick-place
demonstration, a moving-base long wall, a lay-in ceiling tile, and a
family of joint-limit stress activities meant to be run paired against
the baseline planner.  Everything here is plain data assembly; the
interesting machinery lives in the other modules.
"""

import math
from dataclasses import replace

import numpy as np

from .activity import (ActivitySpec, FixedBase, FrameGeometry, MovingBase,
                       PickStation)
from .demonstration import (TaskInstance, extract_guiding_poses,
                            segment_demonstration, synthesize_demonstration)
from .kinematics import PANDA_READY, forward_kinematics, panda_model
from .layouts import LayoutKind, LayoutSpec, ObjectDims, yaw_rotation
from .screws import Pose, compose, inverse

# the paper-scale brick and ceiling tile, in meters
BRICK = ObjectDims(length=0.1016, breadth=0.0508, width=0.0508)
TILE = ObjectDims(length=0.302, breadth=0.302, width=0.014)


def _rot_x(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def flat_pose(t, yaw=0.0):
    """A pose with z up and the given heading."""
    return Pose(yaw_rotation(yaw).rotation, np.asarray(t, dtype=float))


def top_grasp(dims, standoff=0.15):
    """Hand over the object's top face, tool axis pointing down.

    standoff is the flange-to-fingertip length; without it the flange
    would have to touch the object and floor-level places would demand
    fully folded arm postures."""
    return Pose(_rot_x(math.pi),
                np.array([0.0, 0.0, dims.width / 2 + standoff]))


# ----------------------------------------------------------- demonstrations


def pick_place_keys(pick, place, clearance=0.08):
    """Object key poses of a plain transport: straight lift, carry,
    straight set-down.  Three constant screws."""
    lifted = Pose(pick.rotation, pick.translation + [0.0, 0.0, clearance])
    hover = Pose(place.rotation, place.translation + [0.0, 0.0, clearance])
    return (pick, lifted, hover, place)


def pick_place_demo(pick, place, clearance=0.08, samples_per_leg=50,
                    object_id="brick", noise=(0.0, 0.0), rng=None):
    return synthesize_demonstration(
        pick_place_keys(pick, place, clearance),
        samples_per_leg=samples_per_leg, object_id=object_id,
        noise=noise, rng=rng)


def model_from_demo(demo, roi_radius=0.15, fit_tol=None):
    """Segment a demonstration and anchor it to its own endpoints."""
    kwargs = {} if fit_tol is None else {"fit_tol": fit_tol}
    segments = segment_demonstration(demo, **kwargs)
    instance = TaskInstance(initial=demo.poses[0], goal=demo.poses[-1])
    return extract_guiding_poses(segments, instance, roi_radius=roi_radius)


# canonical transport demo every wall scenario reuses
DEMO_PICK = flat_pose([0.45, 0.25, BRICK.width / 2])
DEMO_PLACE = flat_pose([0.45, -0.15, BRICK.width / 2])


def brick_demo_model():
    return model_from_demo(pick_place_demo(DEMO_PICK, DEMO_PLACE))


# ------------------------------------------------------------------- walls


def brick_wall_activity(layers=3, per_layer=4):
    """Running-bond straight wall in front of a fixed base.

    Wall and supply pile sit at the same radius so every carry is a
    sideways sweep at comfortable reach; pulling either much closer to
    the base folds the elbow into its lower limit, which no amount of
    elbow swing can relieve."""
    pitch = BRICK.length
    layout = LayoutSpec(
        kind=LayoutKind.STRAIGHT_WALL,
        base=flat_pose([0.46, -0.152, BRICK.width / 2], yaw=math.pi / 2),
        dims=BRICK, layers=layers, per_layer=per_layer,
        layer_offset=(pitch / 2, 0.0))
    return ActivitySpec(
        layout=layout,
        demo_model=brick_demo_model(),
        pick_station=PickStation(
            base=flat_pose([0.46, 0.28, BRICK.width / 2]), restock=4),
        base_policy=FixedBase(base=flat_pose([0.0, 0.0, 0.0])),
        grasp_offset=top_grasp(BRICK))


def moving_wall_activity(seed, layers=3, per_layer=12, relocate_every=3):
    """Long wall built from a platform that steps along it, one lap of
    stations per course, supply pile riding on the platform."""
    pitch = BRICK.length
    stations = math.ceil(per_layer / relocate_every)
    layout = LayoutSpec(
        kind=LayoutKind.STRAIGHT_WALL,
        base=flat_pose([0.48, 0.0, BRICK.width / 2], yaw=math.pi / 2),
        dims=BRICK, layers=layers, per_layer=per_layer,
        layer_offset=(pitch / 2, 0.0))
    policy = MovingBase(
        initial=flat_pose([0.0, pitch, 0.0]),
        step=flat_pose([0.0, relocate_every * pitch, 0.0]),
        seed=seed, relocate_every=relocate_every,
        stations_per_lap=stations)
    return ActivitySpec(
        layout=layout,
        demo_model=brick_demo_model(),
        pick_station=PickStation(
            base=flat_pose([0.32, -0.25, BRICK.width / 2]),
            in_base_frame=True, restock=relocate_every),
        base_policy=policy,
        grasp_offset=top_grasp(BRICK))


# ----------------------------------------------------------------- ceiling


def ceiling_tile_activity(tilt=math.radians(20.0)):
    """Lay-in tile: stage under the opening tilted, rise through,
    flatten above, settle onto the lip.  Returns (spec, frame)."""
    frame = FrameGeometry(pose=flat_pose([0.45, 0.0, 0.60]),
                          opening_length=0.32, opening_breadth=0.32)
    lip_z = 0.60
    seat = flat_pose([0.45, 0.0, lip_z + TILE.width / 2])
    keys = (
        flat_pose([0.35, -0.30, TILE.width / 2]),
        Pose(_rot_x(tilt), np.array([0.45, 0.0, 0.47])),
        Pose(_rot_x(tilt), np.array([0.45, 0.0, 0.68])),
        flat_pose([0.45, 0.0, 0.68]),
        seat,
    )
    demo = synthesize_demonstration(keys, samples_per_leg=50,
                                    object_id="tile")
    layout = LayoutSpec(kind=LayoutKind.CEILING_GRID, base=seat, dims=TILE,
                        layers=1, per_layer=1)
    spec = ActivitySpec(
        layout=layout,
        demo_model=model_from_demo(demo),
        pick_station=PickStation(base=flat_pose([0.35, -0.30,
                                                 TILE.width / 2])),
        base_policy=FixedBase(base=flat_pose([0.0, 0.0, 0.0])),
        grasp_offset=top_grasp(TILE))
    return spec, frame


def oversized_tile(frame, factor=1.2):
    """A tile scaled against the opening itself; it cannot fit."""
    return ObjectDims(length=frame.opening_length * factor,
                      breadth=frame.opening_breadth * factor,
                      width=TILE.width)


# ------------------------------------------------------- near-limit suite


def limited_joint_panda(joint, lower, upper):
    """The packaged arm with one joint's limits replaced."""
    model = panda_model()
    lo = model.lower.copy()
    hi = model.upper.copy()
    lo[joint], hi[joint] = lower, upper
    return replace(model, lower=lo, upper=hi)


def _turntable_activity(turn, joint, lower, upper):
    """One brick swept around the base axis by a world-z turn, with one
    roll joint pinched.  The hand starts exactly over the pick, so the
    whole activity is the reorientation sweep that saturates the
    pinched joint."""
    robot = limited_joint_panda(joint, lower, upper)
    grasp = top_grasp(BRICK)
    start = forward_kinematics(panda_model(), PANDA_READY)
    obj_pick = compose(start, inverse(grasp))
    goal = compose(yaw_rotation(turn), obj_pick)
    layout = LayoutSpec(kind=LayoutKind.STRAIGHT_WALL, base=goal,
                        dims=BRICK, layers=1, per_layer=1)
    demo = pick_place_demo(obj_pick, goal, clearance=0.05)
    return ActivitySpec(
        layout=layout,
        demo_model=model_from_demo(demo),
        pick_station=PickStation(base=obj_pick),
        base_policy=FixedBase(base=flat_pose([0.0, 0.0, 0.0])),
        robot=robot,
        grasp_offset=grasp)


def near_limit_scenarios():
    """Paired stress cases: (name, spec) with one roll joint pinched.

    Run each through compare_baseline; the baseline planner jams on the
    pinched joint mid-sweep while mode switching trades the sweep into
    the other roll joints.
    """
    return [
        ("shoulder_roll_single_turn",
         _turntable_activity(0.5, 0, -0.4, 0.4)),
        ("shoulder_roll_reverse_turn",
         _turntable_activity(-0.5, 0, -0.4, 0.4)),
        ("elbow_roll_turn",
         _turntable_activity(0.6, 2, -0.35, 0.35)),
        ("forearm_roll_turn",
         _turntable_activity(0.6, 4, -0.35, 0.35)),
        ("wrist_roll_turn",
         _turntable_activity(0.6, 6, math.pi / 4 - 0.3, math.pi / 4 + 0.3)),
    ]
