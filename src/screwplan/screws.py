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


def _norm(x):
    # np.linalg.norm's own arithmetic for a real array, without its
    # dispatch: sqrt of the ravelled dot product
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _check_rotation(R):
    """ValueError unless R is orthonormal within _ORTHO_TOL with positive
    determinant; NaN fails."""
    dev = np.abs(R.T @ R - _EYE3).max()
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    # once dev <= tol, det is within ~2e-9 of +-1, so the sign of the
    # triple product is the sign of det
    if not dev <= _ORTHO_TOL or (a * (e * i - f * h) - b * (d * i - f * g)
                                 + c * (d * h - e * g)) < 0.0:
        raise ValueError(f"rotation not orthonormal (deviation {dev:.3e})")


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
        _check_rotation(R)
        if not np.isfinite(p).all():
            raise ValueError("pose translation must be finite")
        R.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", p)

    @staticmethod
    def identity():
        return Pose(_EYE3, np.zeros(3))

    def apply(self, point):
        """Transform a 3-point (or an (n, 3) stack of points)."""
        return np.asarray(point, float) @ self.rotation.T + self.translation


def _compose(Ra, pa, Rb, pb):
    R = Ra @ Rb
    # one Newton step keeps long chains orthonormal
    R = R @ (1.5 * _EYE3 - 0.5 * (R.T @ R))
    return R, Ra @ pb + pa


def compose(a, b):
    """a then b is NOT this: compose(a, b) maps x to a(b(x))."""
    return Pose(*_compose(a.rotation, a.translation, b.rotation,
                          b.translation))


def inverse(a):
    return Pose(a.rotation.T, -(a.rotation.T @ a.translation))


def pose_error(a, b):
    """(rotation angle, translation distance) between two poses.

    Both components are symmetric in the arguments and zero iff the poses
    coincide. The angle uses atan2 of the skew norm against the trace, which
    stays accurate near 0 and near pi.
    """
    R = a.rotation.T @ b.rotation
    s = _norm(R - R.T) / math.sqrt(8.0)
    c = (np.trace(R) - 1.0) / 2.0
    rot = math.atan2(min(s, 1.0), max(-1.0, min(c, 1.0)))
    return rot, _norm(a.translation - b.translation)


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
        _check_screw(axis, moment, self.pitch, self.magnitude)
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
        _check_unit_twist(lin, ang)
        lin.setflags(write=False)
        ang.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "angular", ang)

    def array(self):
        return np.concatenate([self.linear, self.angular])


def _check_screw(axis, moment, pitch, magnitude):
    if abs(_norm(axis) - 1.0) > _ORTHO_TOL:
        raise ValueError("screw axis must be a unit vector")
    if math.isinf(pitch):
        if _norm(moment) > 1e-12:
            raise ValueError("pure translation must have zero moment")
    elif abs(axis @ moment) > _ORTHO_TOL:
        raise ValueError("moment must be orthogonal to the axis")
    if magnitude < 0.0:
        raise ValueError("magnitude must be nonnegative")


def _check_unit_twist(lin, ang):
    na = _norm(ang)
    if abs(na - 1.0) > _ORTHO_TOL:
        if na > _ORTHO_TOL:
            raise ValueError("angular part must be unit or zero")
        if abs(_norm(lin) - 1.0) > _ORTHO_TOL:
            raise ValueError(
                "zero angular part requires a unit linear part")


def _twist_parts(axis, moment, pitch):
    """(linear, angular) of the unit twist of a screw: [moment + pitch *
    axis; axis], or [axis; 0] for infinite pitch."""
    if math.isinf(pitch):
        return axis, np.zeros(3)
    return moment + pitch * axis, axis


def unit_twist(screw):
    return UnitTwist(*_twist_parts(screw.axis, screw.moment, screw.pitch))


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
    if _norm(xi.angular) > 0.5:
        W = hat(xi.angular)
        W2 = W @ W
        return Pose(_rodrigues(theta, W, W2), _v_mat(theta, W, W2) @ xi.linear)
    return Pose(_EYE3, theta * xi.linear)


def rot_to_quat(R):
    """Rotation matrix to unit quaternion [w, x, y, z], w >= 0.

    Pivots on the largest of trace and diagonal entries, so the axis stays
    accurate for rotations arbitrarily close to pi.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R.tolist()
    t = r00 + r11 + r22
    if t >= r00 and t >= r11 and t >= r22:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array([0.5 * r, (r21 - r12) * s,
                      (r02 - r20) * s, (r10 - r01) * s])
    elif r00 >= r11 and r00 >= r22:
        r = math.sqrt(1.0 + r00 - r11 - r22)
        s = 0.5 / r
        q = np.array([(r21 - r12) * s, 0.5 * r,
                      (r01 + r10) * s, (r02 + r20) * s])
    elif r11 >= r22:
        r = math.sqrt(1.0 - r00 + r11 - r22)
        s = 0.5 / r
        q = np.array([(r02 - r20) * s, (r01 + r10) * s,
                      0.5 * r, (r12 + r21) * s])
    else:
        r = math.sqrt(1.0 - r00 - r11 + r22)
        s = 0.5 / r
        q = np.array([(r10 - r01) * s, (r02 + r20) * s,
                      (r12 + r21) * s, 0.5 * r])
    q /= _norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_to_rot(q):
    """Quaternion [w, x, y, z] (any nonzero norm) to a rotation matrix."""
    q = np.asarray(q, float)
    w, x, y, z = q / _norm(q)
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
        [2.0 * (x * y + z * w), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - x * w)],
        [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), 1.0 - 2.0 * (x * x + y * y)],
    ])


def _axis_angle(R):
    # quaternion route: stable at both ends of [0, pi]
    q = rot_to_quat(R)
    n = _norm(q[1:])
    theta = 2.0 * math.atan2(n, q[0])
    if n == 0.0:
        return np.array([0.0, 0.0, 1.0]), theta
    return q[1:] / n, theta


def _chasles(R, p):
    """Unchecked (axis, moment, pitch, magnitude) of the displacement
    (R, p): the one log behind screw_from_pose, log_pose and log_coords.

    Rotations with angle below ROT_IDENTITY_TOL are treated as pure
    translations; the exact identity yields the canonical zero screw
    (axis z, zero moment and pitch, zero magnitude). Rotation magnitudes
    land in [0, pi]; at exactly pi the axis sign follows the quaternion
    pivot convention.
    """
    omega, theta = _axis_angle(R)
    if theta < ROT_IDENTITY_TOL:
        d = _norm(p)
        if d == 0.0:
            return np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.0, 0.0
        return p / d, np.zeros(3), INFINITE_PITCH, d
    W = hat(omega)
    v = _v_inv(theta, W, W @ W) @ p
    h = float(omega @ v)
    m = v - h * omega
    # the closed-form inverse leaves a ~1e-16 component along the axis
    m -= (m @ omega) * omega
    return omega, m, h, theta


def screw_from_pose(pose):
    """Chasles decomposition of a displacement (see _chasles)."""
    return ScrewDisplacement(*_chasles(pose.rotation, pose.translation))


def log_pose(pose):
    """(unit twist, magnitude) such that exp_screw reproduces the pose."""
    s = screw_from_pose(pose)
    return unit_twist(s), s.magnitude


def log_coords(R, p):
    """Log coordinates xi * theta of the displacement (R, p): what
    log_pose gives, with the same checks, but no screw or twist object."""
    axis, moment, pitch, theta = _chasles(R, p)
    _check_screw(axis, moment, pitch, theta)
    lin, ang = _twist_parts(axis, moment, pitch)
    _check_unit_twist(lin, ang)
    return np.concatenate([lin, ang]) * theta


def error_twist(goal, pose):
    """Log coordinates of compose(goal, inverse(pose)), the spatial twist
    that carries pose onto goal in unit time.  Runs the rotation checks
    of those two poses without building them."""
    Rt = pose.rotation.T
    _check_rotation(Rt)
    R, p = _compose(goal.rotation, goal.translation, Rt,
                    -(Rt @ pose.translation))
    _check_rotation(R)
    return log_coords(R, p)


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
    if _norm(xi.angular) > 0.5:
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


def write_document(doc, path, indent=1):
    """One JSON document and a closing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")


def read_document(path, error, fmt=None):
    """One JSON document; the caller's `error` class for invalid JSON
    or, when fmt is given, for a "format" tag other than fmt."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise error(f"not valid JSON: {e}") from e
    if fmt is not None and doc.get("format") != fmt:
        raise error(f'expected format "{fmt}"')
    return doc


def save_pose_sequence(poses, path):
    """Ordered poses as one JSON document; the format the planner's
    guiding-pose input rides in."""
    write_document({"format": "pose_sequence", "units": {"length": "m"},
                    "poses": [pose_to_record(p) for p in poses]}, path)


def load_pose_sequence(path):
    doc = read_document(path, ValueError, "pose_sequence")
    return [pose_from_record(rec) for rec in doc["poses"]]
