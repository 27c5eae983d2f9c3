"""Shared generators and independent reference implementations for the tests.

expm_dense is the oracle used to cross-check the closed-form screw
exponential: plain scaling-and-squaring on the 4x4 twist matrix, no shared
code with the package internals.  geodesic_deviation, with the batched
pose_errors and error_twist it rests on, is the oracle that checks the
planner tracks the screw geodesic; the package itself never measures it.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from screwplan.demonstration import Demonstration
from screwplan.kinematics import RobotModel
from screwplan.screws import (
    INFINITE_PITCH,
    Pose,
    ScrewDisplacement,
    _relative_log,
    _rows,
    _unit_quats,
    quat_to_rot,
    sclerp_path,
)


def demo_from_poses(times, poses, object_id):
    """A Demonstration of Pose samples, their rotations and translations
    stacked."""
    return Demonstration(
        times, np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
        np.array([p.translation for p in poses]).reshape(-1, 3), object_id)


def rand_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def rand_rotation(rng):
    return quat_to_rot(rng.normal(size=4))


def rand_pose(rng, span=1.0):
    return Pose(rand_rotation(rng), rng.uniform(-span, span, 3))


def rand_screw(rng, allow_prismatic=True):
    axis = rand_unit(rng)
    if allow_prismatic and rng.random() < 0.2:
        return ScrewDisplacement(axis, np.zeros(3), INFINITE_PITCH,
                                 rng.uniform(0.05, 0.8))
    m = rng.normal(size=3) * 0.3
    m -= (m @ axis) * axis
    pitch = rng.uniform(-0.2, 0.2)
    # keep clear of both the identity cutoff and the theta = pi branch point
    theta = rng.uniform(0.05, 3.09)
    return ScrewDisplacement(axis, m, pitch, theta)


def records_close(a, b, tol=1e-13):
    """Structural equality of two JSON-ready records, numbers compared
    with a tolerance (poses pass through quaternions, which costs ulps)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(
            records_close(a[k], b[k], tol) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            records_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


def expm_dense(A):
    """Matrix exponential by scaling-and-squaring over a Taylor series."""
    n = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(n))) + 1) if n > 0 else 0
    B = A / (2.0 ** s)
    X = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 25):
        term = term @ B / k
        X = X + term
    for _ in range(s):
        X = X @ X
    return X


def prismatic_toy():
    return RobotModel(
        name="toy",
        twists=np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]),
        home_pose=Pose.identity(),
        lower=np.array([-3.0, -1.0, -1.0]),
        upper=np.array([3.0, 1.0, 1.0]),
        sew_indices=(0, 1, 2),
    )


def toy_with_wrist(toy):
    """The toy with a four-joint spherical wrist on its end."""
    wrist = [[0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]]
    return dataclasses.replace(
        toy, name="toy7", twists=np.vstack([toy.twists, wrist]),
        lower=np.concatenate([toy.lower, np.full(4, -3.0)]),
        upper=np.concatenate([toy.upper, np.full(4, 3.0)]))


# call counts depend on the interpreter and numpy; the bounds the tests
# set were read on Python 3.11.7 with numpy 2.4.6
pinned_counts = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
    reason="call counts are pinned to Python 3.11 and numpy 2.4")


def python_calls(run, skip=None, only=None):
    """(run(), the Python-level call events it made), leaving out the
    calls of the code object skip, or counting only those of the code
    object only."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is not skip and (
                only is None or frame.f_code is only):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, calls[0]


SCREW_TRACK_TOL = (math.radians(0.5), 1e-3)  # geodesic conformance


def rot_to_quat(R):
    """Rotation matrix to unit quaternion [w, x, y, z], w >= 0: the
    one-rotation case of screws._unit_quats."""
    return _unit_quats(np.asarray(R, float)[None])[0]


def pose_errors(Ra, pa, Rb, pb):
    """pose_error over stacks of poses a and b, rotations (n, 3, 3) and
    translations (n, 3): arrays of n angles and n distances."""
    rel = np.einsum("nji,njk->nik", Ra, Rb)
    tr = np.einsum("nii->n", rel)
    skew = rel - np.transpose(rel, (0, 2, 1))
    s = np.sqrt((skew * skew).sum(axis=(1, 2))) / math.sqrt(8.0)
    c = (tr - 1.0) / 2.0
    rot = np.arctan2(np.minimum(s, 1.0), np.clip(c, -1.0, 1.0))
    return rot, np.linalg.norm(pa - pb, axis=1)


def error_twist(goal, pose):
    """Log coordinates xi * theta of compose(goal, inverse(pose)), the
    spatial twist that carries pose onto goal in unit time."""
    xi, theta = _relative_log(*_rows(goal), *_rows(pose))
    return xi * theta


def geodesic_deviation(start, goal, poses, translation_scale=1.0):
    """Worst distance from a pose sequence to the screw geodesic
    between start and goal: (max rotation, max translation), zero for
    no poses.

    Each pose is matched to its closest geodesic point: a weighted
    twist projection seeds the parameter (second-order accurate near
    the geodesic), then two rounds of three-point parabolic refinement
    tighten it.  The reported deviation is an upper bound that is tight
    for near-geodesic sequences.
    """
    poses = list(poses)
    if not poses:
        return 0.0, 0.0
    Rs = np.stack([p.rotation for p in poses])
    ps = np.stack([p.translation for p in poses])
    chord = error_twist(goal, start)
    weighted = np.concatenate([np.full(3, 1.0 / translation_scale ** 2),
                               np.ones(3)]) * chord
    denom = float(chord @ weighted)

    def at(taus):
        # rows: score, rotation, translation; one column per pose
        rot, trans = pose_errors(*sclerp_path(start, goal, taus), Rs, ps)
        return np.stack([rot + trans / translation_scale, rot, trans])

    if denom < 1e-18:
        tau = np.zeros(len(poses))
    else:
        tau = np.clip(np.array([float(error_twist(p, start) @ weighted)
                                for p in poses]) / denom, 0.0, 1.0)
    best = at(tau)
    width = 0.004
    for _ in range(2):
        lo = at(tau - width)
        hi = at(tau + width)
        # parabola through the three samples; its vertex is a candidate
        # only where the parabola opens upward
        curve = lo[0] - 2.0 * best[0] + hi[0]
        bent = curve > 1e-18
        shift = np.clip(0.5 * width * (lo[0] - hi[0])
                        / np.where(bent, curve, 1.0), -width, width)
        trial = at(tau + shift)
        trial[0, ~bent] = np.inf
        pick = np.argmin([best[0], lo[0], hi[0], trial[0]], axis=0)
        best = np.choose(pick, [best, lo, hi, trial])
        tau = tau + np.choose(pick, [0.0, -width, width, shift])
        width *= 0.2
    return float(best[1].max()), float(best[2].max())
