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
    """ValueError unless R is finite, orthonormal within _ORTHO_TOL and of
    positive determinant; non-finite entries fail before any product."""
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    if not math.isfinite(a + b + c + d + e + f + g + h + i):
        raise ValueError("rotation not orthonormal (non-finite entries)")
    dev = np.abs(R.T @ R - _EYE3).max()
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


def _check_screw(axis, moment, pitch, magnitude):
    if abs(_norm(axis) - 1.0) > _ORTHO_TOL:
        raise ValueError("screw axis must be a unit vector")
    if math.isinf(pitch):
        if _norm(moment) > 1e-12:
            raise ValueError("pure translation must have zero moment")
    elif (abs(axis @ moment) > _ORTHO_TOL  # relative for a far-off line
          and abs(axis @ moment) > _ORTHO_TOL * _norm(moment)):
        raise ValueError("moment must be orthogonal to the axis")
    if magnitude < 0.0:
        raise ValueError("magnitude must be nonnegative")


def _check_unit_twist(xi):
    na = _norm(xi[3:])
    if abs(na - 1.0) > _ORTHO_TOL:
        if na > _ORTHO_TOL:
            raise ValueError("angular part must be unit or zero")
        if abs(_norm(xi[:3]) - 1.0) > _ORTHO_TOL:
            raise ValueError(
                "zero angular part requires a unit linear part")


def _twist(axis, moment, pitch):
    """Unit twist [v; w] of a screw: [moment + pitch * axis; axis], or
    [axis; 0] for infinite pitch."""
    if math.isinf(pitch):
        return np.concatenate([axis, np.zeros(3)])
    return np.concatenate([moment + pitch * axis, axis])


def unit_twist(screw):
    """The unit twist [v; w] (a 6-vector) of a ScrewDisplacement."""
    return _twist(screw.axis, screw.moment, screw.pitch)


def exp_twists(theta, W, W2, v):
    """Exponentials of unit twists [v; w] moved through the angles
    theta (n,): rotations (n, 3, 3) and translations (n, 3).  W = hat(w),
    W2 = W @ W and the column v (3, 1) are shared by every angle or
    stacked one per angle.  Rodrigues' formula and its integral; a pure
    translation (W = 0) gives exactly I and theta v, so nothing branches
    on the pitch."""
    s = np.sin(theta)[:, None, None]
    half = np.sin(0.5 * theta)
    # 2 sin^2(t/2) == 1 - cos t without cancellation near zero
    c2 = (2.0 * (half * half))[:, None, None]
    t = theta[:, None, None]
    R = _EYE3 + s * W + c2 * W2
    p = ((t * _EYE3 + c2 * W + (t - s) * W2) @ v)[:, :, 0]
    return R, p


def exp_screw(xi, theta):
    """Displacement that results from moving `theta` along unit twist `xi`.

    theta is radians for rotational twists, meters for translational ones.
    """
    xi = np.asarray(xi, float)
    if xi.shape != (6,):
        raise ValueError("unit twist must be a 6-vector [v; w]")
    _check_unit_twist(xi)
    W = hat(xi[3:])
    R, p = exp_twists(np.array([theta], dtype=float), W, W @ W,
                      xi[:3, None])
    return Pose(R[0], p[0])


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
    (R, p): the one log behind screw_from_pose and _log.

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
        if d < 1e-154:  # p @ p is subnormal: normalise a rescaled p
            s = float(np.abs(p).max())
            u = p / s
            return u / _norm(u), np.zeros(3), INFINITE_PITCH, s * _norm(u)
        return p / d, np.zeros(3), INFINITE_PITCH, d
    W = hat(omega)
    # the inverse of exp_twists' translation map, series near zero
    c2 = (theta / 12.0 + theta ** 3 / 720.0 if theta < 1e-4
          else 1.0 / theta - 0.5 / math.tan(0.5 * theta))
    v = (_EYE3 / theta - 0.5 * W + c2 * (W @ W)) @ p
    h = float(omega @ v)
    m = v - h * omega
    # the closed-form inverse leaves a ~1e-16 component along the axis
    m -= (m @ omega) * omega
    return omega, m, h, theta


def screw_from_pose(pose):
    """Chasles decomposition of a displacement (see _chasles)."""
    return ScrewDisplacement(*_chasles(pose.rotation, pose.translation))


def _log(R, p):
    """Checked (unit twist xi (6,), magnitude theta) of the displacement
    (R, p): the one log behind log_pose, error_twist and sclerp."""
    axis, moment, pitch, theta = _chasles(R, p)
    _check_screw(axis, moment, pitch, theta)
    xi = _twist(axis, moment, pitch)
    _check_unit_twist(xi)
    return xi, theta


def log_pose(pose):
    """(unit twist, magnitude) such that exp_screw reproduces the pose."""
    return _log(pose.rotation, pose.translation)


def _relative_log(goal, start):
    """_log of compose(goal, inverse(start)), checked but unbuilt."""
    Rt = start.rotation.T
    _check_rotation(Rt)
    R, p = _compose(goal.rotation, goal.translation, Rt,
                    -(Rt @ start.translation))
    _check_rotation(R)
    return _log(R, p)


def error_twist(goal, pose):
    """Log coordinates xi * theta of compose(goal, inverse(pose)), the
    spatial twist that carries pose onto goal in unit time."""
    xi, theta = _relative_log(goal, pose)
    return xi * theta


def sclerp(start, goal, tau):
    """Screw linear interpolation: the constant-screw geodesic from start
    (tau = 0) to goal (tau = 1). tau may lie outside [0, 1] to extrapolate
    along the same screw."""
    R, p = sclerp_path(start, goal, [tau])
    return Pose(R[0], p[0])


def sclerp_path(start, goal, taus):
    """Vectorized sclerp: returns rotations (n, 3, 3) and translations
    (n, 3) for an array of interpolation parameters."""
    xi, theta = _relative_log(goal, start)
    W = hat(xi[3:])
    R, p = exp_twists(theta * np.asarray(taus, float), W, W @ W,
                      xi[:3, None])
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


# what a malformed field raises on its way through a builder
_FIELD_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError,
                 OverflowError)

UNITS = {"length": "m", "angle": "rad"}


def decode(doc, error, build, fmt=None, units=None):
    """build(doc) for a JSON object with the given "format" tag and
    declared units: a string such as "m", or a dict every key of which
    must match.  Any failure raises the caller's `error` class; an
    `error` raised by build (or by a nested decode) passes unchanged."""
    if not isinstance(doc, dict):
        raise error(f"expected a JSON object, got {type(doc).__name__}")
    if fmt is not None and doc.get("format") != fmt:
        raise error(f'expected format "{fmt}"')
    got = doc.get("units")
    if units is not None and not (
            got == units if isinstance(units, str)
            else isinstance(got, dict) and units.items() <= got.items()):
        raise error(f"expected units {units}, got {got}")
    try:
        return build(doc)
    except error:
        raise
    except KeyError as e:
        raise error(f"missing field {e}") from e
    except _FIELD_ERRORS as e:
        raise error(f"bad field: {e}") from e


def write_document(doc, path, indent=1):
    """One JSON document and a closing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")


def read_document(path, error):
    """One JSON document; the caller's `error` class, naming the path,
    for a file that is not JSON."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise error(f"{path}: not valid JSON: {e}") from e


def write_lines(header, records, path):
    """Line-delimited JSON: the header, then one record per line."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in (header, *records):
            f.write(json.dumps(rec) + "\n")


def read_lines(path, error, header, record):
    """(header(first record), [record(r) for each later one]) of a
    line-delimited JSON file, blank lines skipped; each builder runs
    through decode, and every failure names the file and the line."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError as e:
                raise error(f"{path} line {n}: not valid JSON: {e}") from e
            try:
                out.append(decode(doc, error, record if out else header))
            except error as e:
                raise type(e)(f"{path} line {n}: {e}") from e
    if not out:
        raise error(f"{path}: empty file")
    return out[0], out[1:]


def save_pose_sequence(poses, path):
    """Ordered poses as one JSON document; the format the planner's
    guiding-pose input rides in."""
    write_document({"format": "pose_sequence", "units": {"length": "m"},
                    "poses": [pose_to_record(p) for p in poses]}, path)


def load_pose_sequence(path):
    return decode(read_document(path, ValueError), ValueError,
                  lambda doc: [pose_from_record(rec) for rec in doc["poses"]],
                  "pose_sequence", {"length": "m"})
