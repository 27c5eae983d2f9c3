"""Poses, screw displacements and ScLERP on SE(3).

Twist stacking convention: every 6-vector in this package is [v; omega],
LINEAR PART FIRST. A lot of published code stacks [omega; v]; all Jacobians,
velocity commands and serialized twists here follow the linear-first order,
so translate before comparing against other libraries.

Angles are radians, distances meters. A screw displacement is the Chasles
form of a rigid displacement: a line (unit direction `axis`, moment
`moment` = r x axis for any axis point r), a pitch (advance per radian,
math.inf for pure translations) and a magnitude (radians, or meters when the
pitch is infinite).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

INFINITE_PITCH = math.inf

# rotations below this angle are treated as identity when extracting screw
# parameters; the rotation axis is unobservable down there
ROT_IDENTITY_TOL = 1e-8

_ORTHO_TOL = 1e-9
_EYE3 = np.eye(3)


def hat(v):
    """3-vector to the skew-symmetric matrix such that hat(v) @ x = v x x."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def twist_hat(twist):
    """6-vector [v; omega] to its 4x4 matrix form [[hat(omega), v], [0, 0]]."""
    out = np.zeros((4, 4))
    out[:3, :3] = hat(twist[3:])
    out[:3, 3] = twist[:3]
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform: x maps to rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.array(self.rotation, dtype=float)
        p = np.array(self.translation, dtype=float)
        if R.shape != (3, 3) or p.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector")
        dev = np.abs(R.T @ R - _EYE3).max()
        if dev > _ORTHO_TOL or np.linalg.det(R) < 0.0:
            raise ValueError(
                f"rotation not orthonormal (deviation {dev:.3e})")
        R.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", p)

    @staticmethod
    def identity():
        return Pose(_EYE3, np.zeros(3))

    @staticmethod
    def from_matrix(T):
        T = np.asarray(T, float)
        return Pose(T[:3, :3], T[:3, 3])

    def matrix(self):
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    def apply(self, point):
        """Transform a 3-point (or an (n, 3) stack of points)."""
        return np.asarray(point, float) @ self.rotation.T + self.translation

    def __matmul__(self, other):
        return compose(self, other)


def compose(a, b):
    """a then b is NOT this: compose(a, b) maps x to a(b(x))."""
    R = a.rotation @ b.rotation
    # one Newton step keeps long chains orthonormal
    R = R @ (1.5 * _EYE3 - 0.5 * (R.T @ R))
    return Pose(R, a.rotation @ b.translation + a.translation)


def inverse(a):
    return Pose(a.rotation.T, -(a.rotation.T @ a.translation))


def pose_error(a, b):
    """(rotation angle, translation distance) between two poses.

    Both components are symmetric in the arguments and zero iff the poses
    coincide. The angle uses atan2 of the skew norm against the trace, which
    stays accurate near 0 and near pi.
    """
    R = a.rotation.T @ b.rotation
    s = np.linalg.norm(R - R.T) / math.sqrt(8.0)
    c = (np.trace(R) - 1.0) / 2.0
    rot = math.atan2(min(s, 1.0), max(-1.0, min(c, 1.0)))
    return rot, float(np.linalg.norm(a.translation - b.translation))


@dataclass(frozen=True)
class ScrewDisplacement:
    """Finite rigid displacement in Chasles form.

    axis: unit direction of the screw line.
    moment: r x axis for any point r on the line; zero for pure translations.
    pitch: meters of advance per radian, INFINITE_PITCH for translations.
    magnitude: radians, or meters when the pitch is infinite.
    """

    axis: np.ndarray
    moment: np.ndarray
    pitch: float
    magnitude: float

    def __post_init__(self):
        axis = np.array(self.axis, dtype=float)
        moment = np.array(self.moment, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > _ORTHO_TOL:
            raise ValueError("screw axis must be a unit vector")
        if math.isinf(self.pitch):
            if np.linalg.norm(moment) > 1e-12:
                raise ValueError("pure translation must have zero moment")
        elif abs(axis @ moment) > _ORTHO_TOL:
            raise ValueError("moment must be orthogonal to the axis")
        if self.magnitude < 0.0:
            raise ValueError("magnitude must be nonnegative")
        axis.setflags(write=False)
        moment.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "moment", moment)
        object.__setattr__(self, "pitch", float(self.pitch))
        object.__setattr__(self, "magnitude", float(self.magnitude))


@dataclass(frozen=True)
class UnitTwist:
    """Normalized twist [linear; angular]: unit angular part for finite
    pitch, zero angular and unit linear part for pure translations."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        lin = np.array(self.linear, dtype=float)
        ang = np.array(self.angular, dtype=float)
        na = np.linalg.norm(ang)
        if abs(na - 1.0) > _ORTHO_TOL:
            if na > _ORTHO_TOL:
                raise ValueError("angular part must be unit or zero")
            if abs(np.linalg.norm(lin) - 1.0) > _ORTHO_TOL:
                raise ValueError(
                    "zero angular part requires a unit linear part")
        lin.setflags(write=False)
        ang.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "angular", ang)

    def array(self):
        return np.concatenate([self.linear, self.angular])


def unit_twist(screw):
    """Unit twist of a screw: [moment + pitch * axis; axis], or [axis; 0]
    for infinite pitch."""
    if math.isinf(screw.pitch):
        return UnitTwist(screw.axis, np.zeros(3))
    return UnitTwist(screw.moment + screw.pitch * screw.axis, screw.axis)


def _rodrigues(theta, W, W2):
    # 2 sin^2(t/2) == 1 - cos t without cancellation near zero
    return _EYE3 + math.sin(theta) * W + 2.0 * math.sin(0.5 * theta) ** 2 * W2


def _v_mat(theta, W, W2):
    # integral of the rotation: V v is the translation of exp of a twist
    c2 = 2.0 * math.sin(0.5 * theta) ** 2
    if abs(theta) < 1e-4:
        c3 = theta ** 3 / 6.0 - theta ** 5 / 120.0
    else:
        c3 = theta - math.sin(theta)
    return theta * _EYE3 + c2 * W + c3 * W2


def _v_inv(theta, W, W2):
    if theta < 1e-4:
        c2 = theta / 12.0 + theta ** 3 / 720.0
    else:
        c2 = 1.0 / theta - 0.5 / math.tan(0.5 * theta)
    return _EYE3 / theta - 0.5 * W + c2 * W2


def exp_screw(xi, theta):
    """Displacement that results from moving `theta` along unit twist `xi`.

    theta is radians for rotational twists, meters for translational ones.
    """
    if np.linalg.norm(xi.angular) > 0.5:
        W = hat(xi.angular)
        W2 = W @ W
        return Pose(_rodrigues(theta, W, W2), _v_mat(theta, W, W2) @ xi.linear)
    return Pose(_EYE3, theta * xi.linear)


def rot_to_quat(R):
    """Rotation matrix to unit quaternion [w, x, y, z], w >= 0.

    Pivots on the largest of trace and diagonal entries, so the axis stays
    accurate for rotations arbitrarily close to pi.
    """
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t >= R[0, 0] and t >= R[1, 1] and t >= R[2, 2]:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array([0.5 * r, (R[2, 1] - R[1, 2]) * s,
                      (R[0, 2] - R[2, 0]) * s, (R[1, 0] - R[0, 1]) * s])
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        r = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2])
        s = 0.5 / r
        q = np.array([(R[2, 1] - R[1, 2]) * s, 0.5 * r,
                      (R[0, 1] + R[1, 0]) * s, (R[0, 2] + R[2, 0]) * s])
    elif R[1, 1] >= R[2, 2]:
        r = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2])
        s = 0.5 / r
        q = np.array([(R[0, 2] - R[2, 0]) * s, (R[0, 1] + R[1, 0]) * s,
                      0.5 * r, (R[1, 2] + R[2, 1]) * s])
    else:
        r = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2])
        s = 0.5 / r
        q = np.array([(R[1, 0] - R[0, 1]) * s, (R[0, 2] + R[2, 0]) * s,
                      (R[1, 2] + R[2, 1]) * s, 0.5 * r])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_to_rot(q):
    """Quaternion [w, x, y, z] (any nonzero norm) to a rotation matrix."""
    q = np.asarray(q, float)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
        [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
        [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
    ])


def _axis_angle(R):
    # quaternion route: stable at both ends of [0, pi]
    q = rot_to_quat(R)
    n = np.linalg.norm(q[1:])
    theta = 2.0 * math.atan2(n, q[0])
    if n == 0.0:
        return np.array([0.0, 0.0, 1.0]), theta
    return q[1:] / n, theta


def screw_from_pose(pose):
    """Chasles decomposition of a displacement.

    Rotations with angle below ROT_IDENTITY_TOL are treated as pure
    translations; the exact identity yields the canonical zero screw
    (axis z, zero moment and pitch, zero magnitude). Rotation magnitudes
    land in [0, pi]; at exactly pi the axis sign follows the quaternion
    pivot convention.
    """
    omega, theta = _axis_angle(pose.rotation)
    p = pose.translation
    if theta < ROT_IDENTITY_TOL:
        d = float(np.linalg.norm(p))
        if d == 0.0:
            return ScrewDisplacement(np.array([0.0, 0.0, 1.0]), np.zeros(3),
                                     0.0, 0.0)
        return ScrewDisplacement(p / d, np.zeros(3), INFINITE_PITCH, d)
    W = hat(omega)
    v = _v_inv(theta, W, W @ W) @ p
    h = float(omega @ v)
    m = v - h * omega
    # the closed-form inverse leaves a ~1e-16 component along the axis
    m -= (m @ omega) * omega
    return ScrewDisplacement(omega, m, h, theta)


def log_pose(pose):
    """(unit twist, magnitude) such that exp_screw reproduces the pose."""
    s = screw_from_pose(pose)
    return unit_twist(s), s.magnitude


def sclerp(start, goal, tau):
    """Screw linear interpolation: the constant-screw geodesic from start
    (tau = 0) to goal (tau = 1). tau may lie outside [0, 1] to extrapolate
    along the same screw."""
    xi, theta = log_pose(compose(goal, inverse(start)))
    return compose(exp_screw(xi, tau * theta), start)


def sclerp_path(start, goal, taus):
    """Vectorized sclerp: returns rotations (n, 3, 3) and translations
    (n, 3) for an array of interpolation parameters."""
    taus = np.asarray(taus, float)
    xi, theta = log_pose(compose(goal, inverse(start)))
    ang = theta * taus
    if np.linalg.norm(xi.angular) > 0.5:
        W = hat(xi.angular)
        W2 = W @ W
        sin = np.sin(ang)
        c2 = 2.0 * np.sin(0.5 * ang) ** 2
        small = np.abs(ang) < 1e-4
        c3 = np.where(small, ang ** 3 / 6.0 - ang ** 5 / 120.0,
                      ang - sin)
        R = (_EYE3[None, :, :] + sin[:, None, None] * W
             + c2[:, None, None] * W2)
        V = (ang[:, None, None] * _EYE3[None, :, :]
             + c2[:, None, None] * W + c3[:, None, None] * W2)
        p = V @ xi.linear
    else:
        R = np.broadcast_to(_EYE3, (len(taus), 3, 3)).copy()
        p = ang[:, None] * xi.linear
    return R @ start.rotation, R @ start.translation + p


def adjoint(pose):
    """6x6 adjoint for [v; omega] twists: blocks [[R, hat(p) R], [0, R]]."""
    R, p = pose.rotation, pose.translation
    out = np.zeros((6, 6))
    out[:3, :3] = R
    out[:3, 3:] = hat(p) @ R
    out[3:, 3:] = R
    return out


def pose_to_record(pose):
    """Pose to the system-wide serialization record
    {"t": [x, y, z], "q": [w, x, y, z]}."""
    q = rot_to_quat(pose.rotation)
    return {"t": [float(x) for x in pose.translation],
            "q": [float(x) for x in q]}


def pose_from_record(record):
    q = np.asarray(record["q"], float)
    t = np.asarray(record["t"], float)
    if not (np.isfinite(q).all() and np.isfinite(t).all() and q.any()):
        raise ValueError("pose record needs finite t and a nonzero, "
                         "finite q")
    return Pose(quat_to_rot(q), t)


def save_pose_sequence(poses, path):
    """Ordered poses as one JSON document; the format the planner's
    guiding-pose input rides in."""
    doc = {"format": "pose_sequence",
           "units": {"length": "m"},
           "poses": [pose_to_record(p) for p in poses]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_pose_sequence(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "pose_sequence":
        raise ValueError("not a pose sequence file")
    return [pose_from_record(rec) for rec in doc["poses"]]
