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

import math
import sys
from dataclasses import dataclass

import numpy as np

INFINITE_PITCH = math.inf

# rotations below this angle are treated as identity when extracting screw
# parameters; the rotation axis is unobservable down there
ROT_IDENTITY_TOL = 1e-8

_ORTHO_TOL = 1e-9
_EYE3 = np.eye(3)


def hat(v):
    """3-vectors (..., 3) to the skew-symmetric matrices (..., 3, 3) such
    that hat(v) @ x = v x x."""
    v = np.asarray(v, dtype=float)
    W = np.zeros(v.shape[:-1] + (9,))
    W[..., [7, 2, 3]] = v
    W[..., [5, 6, 1]] = -v
    return W.reshape(v.shape[:-1] + (3, 3))


def _norm(x):
    # np.linalg.norm's own arithmetic for a real array, without its
    # dispatch: sqrt of the ravelled dot product
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _check_rotation(R):
    """ValueError unless the float rows R are finite, orthonormal within
    _ORTHO_TOL and of positive determinant; non-finite entries fail
    before any product."""
    (a, b, c), (d, e, f), (g, h, i) = R
    if not math.isfinite(a + b + c + d + e + f + g + h + i):
        raise ValueError("rotation not orthonormal (non-finite entries)")
    # the six distinct entries of R^T R - I, column against column
    dev = max(abs(a * a + d * d + g * g - 1.0),
              abs(b * b + e * e + h * h - 1.0),
              abs(c * c + f * f + i * i - 1.0),
              abs(a * b + d * e + g * h),
              abs(a * c + d * f + g * i),
              abs(b * c + e * f + h * i))
    # once dev <= tol, det is within ~2e-9 of +-1, so the sign of the
    # triple product is the sign of det
    if not dev <= _ORTHO_TOL or (a * (e * i - f * h) - b * (d * i - f * g)
                                 + c * (d * h - e * g)) < 0.0:
        raise ValueError(f"rotation not orthonormal (deviation {dev:.3e})")


def _mul(A, B):
    """The 3x3 product A B of two matrices given as float rows."""
    (a, b, c), (d, e, f), (g, h, i) = A
    (j, k, l), (m, n, o), (p, q, r) = B
    return ((a * j + b * m + c * p, a * k + b * n + c * q,
             a * l + b * o + c * r),
            (d * j + e * m + f * p, d * k + e * n + f * q,
             d * l + e * o + f * r),
            (g * j + h * m + i * p, g * k + h * n + i * q,
             g * l + h * o + i * r))


def _apply(R, x, p):
    """R x + p for float rows R and float 3-vectors x and p."""
    (a, b, c), (d, e, f), (g, h, i) = R
    x0, x1, x2 = x
    return (a * x0 + b * x1 + c * x2 + p[0], d * x0 + e * x1 + f * x2 + p[1],
            g * x0 + h * x1 + i * x2 + p[2])


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
        _check_rotation(R.tolist())
        if not all(map(math.isfinite, p.tolist())):
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


def _rows(pose):
    """A pose as float rows and a float 3-vector, the form the unchecked
    single-pose functions take."""
    return pose.rotation.tolist(), pose.translation.tolist()


def _compose(Ra, pa, Rb, pb):
    """(R, p) of the pose a(b(x)), on float rows and 3-vectors, unchecked;
    R takes one Newton step, R (3 I - R^T R) / 2, which keeps long chains
    orthonormal."""
    R = _mul(Ra, Rb)
    (a, b, c), (d, e, f), (g, h, i) = R
    ab = -0.5 * (a * b + d * e + g * h)
    ac = -0.5 * (a * c + d * f + g * i)
    bc = -0.5 * (b * c + e * f + h * i)
    return _mul(R, ((1.5 - 0.5 * (a * a + d * d + g * g), ab, ac),
                    (ab, 1.5 - 0.5 * (b * b + e * e + h * h), bc),
                    (ac, bc, 1.5 - 0.5 * (c * c + f * f + i * i)))), \
        _apply(Ra, pb, pa)


def compose(a, b):
    """a then b is NOT this: compose(a, b) maps x to a(b(x))."""
    return Pose(*_compose(*_rows(a), *_rows(b)))


def _inverse(R, p):
    """(R^T, -R^T p) on float rows and a float 3-vector, unchecked."""
    (a, b, c), (d, e, f), (g, h, i) = R
    x, y, z = p
    return ((a, d, g), (b, e, h), (c, f, i)), (
        -(a * x + d * y + g * z), -(b * x + e * y + h * z),
        -(c * x + f * y + i * z))


def inverse(a):
    return Pose(*_inverse(*_rows(a)))


def pose_error(a, b):
    """(rotation angle, translation distance) between two poses.

    Both components are symmetric in the arguments and zero iff the poses
    coincide. The angle uses atan2 of the skew norm against the trace, which
    stays accurate near 0 and near pi.
    """
    return _pose_error(*_rows(a), *_rows(b))


def _pose_error(Ra, pa, Rb, pb):
    """pose_error of the poses (Ra, pa) and (Rb, pb), as float rows and
    3-vectors, unchecked.  Of R = Ra^T Rb it takes the trace and the
    skew part R - R^T, whose Frobenius norm over sqrt(8) is half the
    norm of its axial vector."""
    (a, b, c), (d, e, f), (g, h, i) = Ra
    (j, k, l), (m, n, o), (p, q, r) = Rb
    s = 0.5 * math.hypot(
        (c * k + f * n + i * q) - (b * l + e * o + h * r),
        (a * l + d * o + g * r) - (c * j + f * m + i * p),
        (b * j + e * m + h * p) - (a * k + d * n + g * q))
    cos = ((a * j + d * m + g * p) + (b * k + e * n + h * q)
           + (c * l + f * o + i * r) - 1.0) / 2.0
    rot = math.atan2(min(s, 1.0), max(-1.0, min(cos, 1.0)))
    return rot, math.dist(pa, pb)


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


def unit_twist(screw):
    """The unit twist [v; w] (a 6-vector) of a ScrewDisplacement:
    [moment + pitch * axis; axis], or [axis; 0] for infinite pitch."""
    if math.isinf(screw.pitch):
        return np.concatenate([screw.axis, np.zeros(3)])
    return np.concatenate([screw.moment + screw.pitch * screw.axis,
                           screw.axis])


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


def _quat_pivot(R):
    """Unnormalised quaternion (w, x, y, z) of a rotation given as float
    rows.  Pivots on the largest of trace and diagonal entries, so the
    axis stays accurate for rotations arbitrarily close to pi."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    t = r00 + r11 + r22
    if t >= r00 and t >= r11 and t >= r22:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        return 0.5 * r, (r21 - r12) * s, (r02 - r20) * s, (r10 - r01) * s
    if r00 >= r11 and r00 >= r22:
        r = math.sqrt(1.0 + r00 - r11 - r22)
        s = 0.5 / r
        return (r21 - r12) * s, 0.5 * r, (r01 + r10) * s, (r02 + r20) * s
    if r11 >= r22:
        r = math.sqrt(1.0 - r00 + r11 - r22)
        s = 0.5 / r
        return (r02 - r20) * s, (r01 + r10) * s, 0.5 * r, (r12 + r21) * s
    r = math.sqrt(1.0 - r00 - r11 + r22)
    s = 0.5 / r
    return (r10 - r01) * s, (r02 + r20) * s, (r12 + r21) * s, 0.5 * r


def rot_to_quat(R):
    """Rotation matrix to unit quaternion [w, x, y, z], w >= 0 (see
    _quat_pivot)."""
    q = np.array(_quat_pivot(R.tolist()))
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


def _log(R, p):
    """(unit twist xi = [v; w] (6,), magnitude theta) of the displacement
    given as float rows R and a float 3-vector p: the one log behind
    log_pose, screw_from_pose and sclerp.  The rotation is the caller's
    to check.

    The closed-form SE(3) logarithm (Lynch & Park, Modern Robotics, 2017,
    section 3.3.3.2; Murray, Li & Sastry, 1994): theta and w from the
    pivoted quaternion, then v = G(theta)^-1 p =
    p / theta - (w x p) / 2 + c2 (w (w . p) - p), the inverse of
    exp_twists' translation map.

    Rotations with angle below ROT_IDENTITY_TOL are pure translations,
    [p / |p|; 0] and theta = |p|; the exact identity yields the canonical
    zero screw [0, 0, 0, 0, 0, 1] and theta = 0.  Rotation magnitudes land
    in [0, pi]; at exactly pi the axis sign follows the quaternion pivot
    convention.
    """
    w, x, y, z = _quat_pivot(R)
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    n = math.sqrt(x * x + y * y + z * z)
    theta = 2.0 * math.atan2(n, w)
    px, py, pz = p
    if theta < ROT_IDENTITY_TOL:
        d = math.hypot(px, py, pz)
        if d == 0.0:
            return np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), 0.0
        if d < sys.float_info.min:
            # a subnormal length has too few bits to divide by: take the
            # direction of p scaled by its largest entry
            s = max(abs(px), abs(py), abs(pz))
            px, py, pz = px / s, py / s, pz / s
            u = math.hypot(px, py, pz)
            return np.array([px / u, py / u, pz / u, 0.0, 0.0, 0.0]), s * u
        return np.array([px / d, py / d, pz / d, 0.0, 0.0, 0.0]), d
    wx, wy, wz = x / n, y / n, z / n
    if not abs(wx * wx + wy * wy + wz * wz - 1.0) <= _ORTHO_TOL:
        raise ValueError("angular part must be unit or zero")
    # series near zero, where the closed form cancels
    c2 = (theta / 12.0 + theta ** 3 / 720.0 if theta < 1e-4
          else 1.0 / theta - 0.5 / math.tan(0.5 * theta))
    k = wx * px + wy * py + wz * pz
    return np.array([
        px / theta - 0.5 * (wy * pz - wz * py) + c2 * (wx * k - px),
        py / theta - 0.5 * (wz * px - wx * pz) + c2 * (wy * k - py),
        pz / theta - 0.5 * (wx * py - wy * px) + c2 * (wz * k - pz),
        wx, wy, wz]), theta


def screw_from_pose(pose):
    """Chasles decomposition of a displacement, from its log [v; w]:
    axis w, pitch w . v and moment v - pitch w; a pure translation has
    axis v, infinite pitch and zero moment (see _log)."""
    xi, theta = _log(*_rows(pose))
    v, omega = xi[:3], xi[3:]
    if not omega.any():
        return ScrewDisplacement(v, np.zeros(3), INFINITE_PITCH, theta)
    h = float(omega @ v)
    m = v - h * omega
    # the closed-form log leaves a ~1e-16 component along the axis
    m -= (m @ omega) * omega
    return ScrewDisplacement(omega, m, h, theta)


def log_pose(pose):
    """(unit twist, magnitude) such that exp_screw reproduces the pose."""
    return _log(*_rows(pose))


def _relative_log(Rg, pg, Rs, ps):
    """_log of the goal (Rg, pg) composed with the inverse of the start
    (Rs, ps), all float rows and 3-vectors, checked but unbuilt.  A
    relative pose is one product, R = Rg Rs^T, so it takes no Newton
    step; its one rotation check refuses a bad start as well, since for
    an orthonormal goal R^T R = Rs Rs^T and det R = det Rs.  The goal's
    own check is the caller's."""
    Rt, pt = _inverse(Rs, ps)
    R = _mul(Rg, Rt)
    _check_rotation(R)
    return _log(R, _apply(Rg, pt, pg))


def sclerp(start, goal, tau):
    """Screw linear interpolation: the constant-screw geodesic from start
    (tau = 0) to goal (tau = 1). tau may lie outside [0, 1] to extrapolate
    along the same screw."""
    R, p = sclerp_path(start, goal, [tau])
    return Pose(R[0], p[0])


def sclerp_path(start, goal, taus):
    """Vectorized sclerp: returns rotations (n, 3, 3) and translations
    (n, 3) for an array of interpolation parameters."""
    xi, theta = _relative_log(*_rows(goal), *_rows(start))
    W = hat(xi[3:])
    R, p = exp_twists(theta * np.asarray(taus, float), W, W @ W,
                      xi[:3, None])
    return R @ start.rotation, R @ start.translation + p
