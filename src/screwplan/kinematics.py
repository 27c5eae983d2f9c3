"""Product-of-exponentials kinematics for a serial arm.

A robot is its reference twists (spatial frame, zero configuration,
linear part first), a home pose, joint limits, and the three joints
whose axes carry the shoulder, elbow and wrist points.  The arm's
redundancy is exposed as the shoulder-elbow-wrist angle: the signed
rotation of the elbow about the shoulder-wrist line, measured from the
plane spanned by that line and the base vertical.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

from .screws import (UNITS, Pose, decode, exp_twists, hat, pose_from_record,
                     pose_to_record, read_document, write_document)

DAMPING = 1e-3
SINGULAR_TOL = 1e-4
REFERENCE_AXIS_TOL = 1e-6


class InvalidRobotError(ValueError):
    pass


class BadEpsError(ValueError):
    pass


class LimitZone(Enum):
    WITHIN_INNER = "within_inner"
    BETWEEN_BOUNDS = "between_bounds"
    OUTSIDE_OUTER = "outside_outer"


@dataclass(frozen=True)
class RobotModel:
    name: str
    twists: np.ndarray  # (n, 6) reference twists, [v; w]
    home_pose: Pose
    lower: np.ndarray
    upper: np.ndarray
    sew_indices: tuple
    base_pose: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        twists = np.array(self.twists, dtype=float)
        if twists.ndim != 2 or twists.shape[1] != 6:
            raise InvalidRobotError("twists must be an (n, 6) array")
        n = twists.shape[0]
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise InvalidRobotError("joint limits must match joint count")
        if not all(np.isfinite(a).all() for a in (twists, lower, upper)):
            raise InvalidRobotError("twists and joint limits must be finite")
        for row in twists:
            wn = np.linalg.norm(row[3:])
            if abs(wn - 1.0) > 1e-9 and not (
                    wn < 1e-12 and abs(np.linalg.norm(row[:3]) - 1.0) < 1e-9):
                raise InvalidRobotError(
                    "each twist needs a unit rotation axis, or none and a "
                    "unit translation direction")
        if np.any(lower >= upper):
            raise InvalidRobotError("lower limits must be below upper")
        sew = tuple(int(i) for i in self.sew_indices)
        if len(sew) != 3 or len(set(sew)) != 3 or not all(
                0 <= i < n for i in sew) or list(sew) != sorted(sew):
            raise InvalidRobotError(
                "sew_indices must be three increasing joint indices")
        # stacked per-joint constants of the chain: hat(w), hat(w)^2, the
        # columns v and w, and the point on each joint axis nearest the
        # origin
        hats = np.array([hat(w) for w in twists[:, 3:]])
        consts = dict(
            _hats=hats, _hats2=hats @ hats,
            _v=twists[:, :3, None].copy(), _w=twists[:, 3:, None].copy(),
            _axis_points=np.cross(twists[:, 3:], twists[:, :3]))
        for arr in (twists, lower, upper, *consts.values()):
            arr.setflags(write=False)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "sew_indices", sew)
        for name, arr in consts.items():
            object.__setattr__(self, name, arr)

    @property
    def n_joints(self):
        return self.twists.shape[0]


def load_robot_model(path, base_pose=None):
    return robot_from_record(read_document(path, InvalidRobotError),
                             base_pose=base_pose)


def robot_from_record(doc, base_pose=None):
    return decode(doc, InvalidRobotError, lambda doc: RobotModel(
        name=doc["name"],
        twists=np.array(doc["twists"], dtype=float),
        home_pose=pose_from_record(doc["home_pose"]),
        lower=np.array(doc["joint_limits"]["lower"], dtype=float),
        upper=np.array(doc["joint_limits"]["upper"], dtype=float),
        sew_indices=tuple(doc["sew_indices"]),
        base_pose=base_pose if base_pose is not None else Pose.identity(),
    ), units=UNITS)


def robot_to_record(model):
    """Serializable robot description; the mount pose is runtime state
    and stays out of the record."""
    return {
        "name": model.name,
        "units": dict(UNITS),
        "twists": model.twists.tolist(),
        "home_pose": pose_to_record(model.home_pose),
        "joint_limits": {"lower": model.lower.tolist(),
                         "upper": model.upper.tolist()},
        "sew_indices": list(model.sew_indices),
    }


def save_robot_model(model, path):
    write_document(robot_to_record(model), path)


def panda_model(base_pose=None):
    """The packaged 7-DoF arm."""
    ref = resources.files("screwplan.data").joinpath("panda_arm.json")
    with resources.as_file(ref) as path:
        return load_robot_model(path, base_pose=base_pose)


# elbow-bent ready posture of the packaged arm, comfortably inside every
# joint limit; the stock start for activities and examples
PANDA_READY = np.array([0.0, -math.pi / 4, 0.0, -3 * math.pi / 4, 0.0,
                        math.pi / 2, math.pi / 4])


def _cross(a, b):
    # np.cross's axis bookkeeping costs more than the product here
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


class _Chain:
    """One pass down the arm: partial products, flange pose, world
    Jacobian.  partial_rots (n+1, 3, 3) and partial_trans (n+1, 3) are
    stacked; entry i is the transform ahead of joint i, so it carries
    both joint i's axis and the frame its link-(i-1) points live in.

    Every joint's exponential comes from one screws.exp_twists call over
    the model's stacked hat(w), hat(w)^2 and v; a prismatic joint's zero
    hat(w) makes it a translation with no branch.  The rotation chain
    stays a loop of 3x3 products: a cumulative matrix product has no
    batched form that rounds the same way.  Translations then take one
    stacked product and one cumulative sum, the same adds in the same
    order."""

    def __init__(self, model, q):
        q = np.asarray(q, dtype=float)
        if q.shape != (model.n_joints,):
            raise ValueError(
                f"expected {model.n_joints} joint values, got {q.shape}")
        self.model = model
        rot, p = exp_twists(q, model._hats, model._hats2, model._v)
        n = len(q)
        rots = np.empty((n + 1, 3, 3))
        rots[0] = model.base_pose.rotation
        for i in range(n):
            # the BLAS product that @ makes, with half its dispatch cost
            np.dot(rots[i], rot[i], rots[i + 1])
        trans = np.empty((n + 1, 3))
        trans[0] = model.base_pose.translation
        trans[1:] = (rots[:-1] @ p[:, :, None])[:, :, 0]
        self.partial_rots = rots
        self.partial_trans = np.cumsum(trans, axis=0)
        self._jacobian = None

    def flange(self):
        """Flange (rotation, translation) as fresh, unchecked arrays."""
        r = self.partial_rots[-1] @ self.model.home_pose.rotation
        p = (self.partial_rots[-1] @ self.model.home_pose.translation
             + self.partial_trans[-1])
        return r, p

    @property
    def jacobian(self):
        """World-frame Jacobian, columns are joint twists [v; w]; built
        on first use, then shared (a plain attribute test: Python 3.11's
        cached_property takes a lock on every read)."""
        if self._jacobian is None:
            rots = self.partial_rots[:-1]
            w = (rots @ self.model._w)[:, :, 0].T
            v = (rots @ self.model._v)[:, :, 0].T
            self._jacobian = np.concatenate(
                [v + _cross(self.partial_trans[:-1].T, w), w])
        return self._jacobian

    def sew_points(self):
        """World shoulder, elbow and wrist points: the marker joints'
        axis points, carried by the links ahead of them."""
        return tuple(self.partial_rots[i] @ self.model._axis_points[i]
                     + self.partial_trans[i] for i in self.model.sew_indices)


def forward_kinematics(model, q):
    return Pose(*_Chain(model, q).flange())


def pseudoinverse(jac):
    """Pseudoinverse from one SVD: the right one for six joints or
    more, the left one below.  Switches to damped least squares when
    the smallest singular value collapses.  Returns (pinv, damped)."""
    u, sigma, vt = np.linalg.svd(jac, full_matrices=False)
    damped = bool(sigma[-1] < SINGULAR_TOL)
    d = sigma / (sigma * sigma + DAMPING ** 2) if damped else 1.0 / sigma
    return (vt.T * d) @ u.T, damped


def _reference_direction(model, u):
    """In-plane zero reference for the elbow angle: base vertical,
    or base x when the shoulder-wrist line is vertical."""
    zhat = model.base_pose.rotation[:, 2]
    if np.linalg.norm(_cross(zhat, u)) < REFERENCE_AXIS_TOL:
        return model.base_pose.rotation[:, 0]
    return zhat


def _point_jacobian(jac, point, upto):
    """Velocity of a world point attached ahead of joint `upto`."""
    jp = np.zeros((3, jac.shape[1]))
    if upto:
        v, w = jac[:3, :upto], jac[3:, :upto]
        # w_j x point column-wise
        jp[:, :upto] = v - hat(point) @ w
    return jp


def arm_state(model, q):
    """(R, p, jac, psi, dpsi/dq) from one chain pass: the flange as
    fresh, unchecked arrays, the world Jacobian, and the elbow angle
    with its gradient.  The one definition of psi."""
    chain = _Chain(model, q)
    jac = chain.jacobian
    s, e, w = chain.sew_points()
    js, je, jw = (_point_jacobian(jac, p, i)
                  for p, i in zip((s, e, w), model.sew_indices))

    a = w - s
    na = np.linalg.norm(a)
    u = a / na
    da = jw - js
    du = (da - np.outer(u, u @ da)) / na

    ref = _reference_direction(model, u)
    r = ref - np.dot(ref, u) * u
    dr = -np.outer(u, ref @ du) - np.dot(ref, u) * du

    ew = e - s
    f = ew - np.dot(ew, u) * u
    dew = je - js
    df = dew - np.outer(u, ew @ du + u @ dew) - np.dot(ew, u) * du

    rxf = _cross(r, f)
    y = np.dot(u, rxf)
    x = np.dot(r, f)
    # columnwise dr x f and r x df
    dy = rxf @ du + u @ (hat(f) @ dr * -1.0 + hat(r) @ df)
    dx = f @ dr + r @ df
    jpsi = (x * dy - y * dx) / (x * x + y * y)
    psi = math.atan2(y, x)
    return (*chain.flange(), jac, psi, jpsi)


def sew_angle(model, q):
    return arm_state(model, q)[3]


def check_eps(model, eps_inner, eps_outer):
    span = float(np.min(model.upper - model.lower))
    if not 0.0 < eps_outer < eps_inner < 0.5 * span:
        raise BadEpsError(
            f"need 0 < eps_outer < eps_inner < {0.5 * span:.4f}, got "
            f"inner={eps_inner}, outer={eps_outer}")


def limit_status(model, q, eps_inner, eps_outer):
    """Zone of each joint relative to the shrunk limit intervals."""
    check_eps(model, eps_inner, eps_outer)
    inner = within(q, limit_band(model, eps_inner))
    outer = within(q, limit_band(model, eps_outer))
    return [LimitZone.WITHIN_INNER if i else LimitZone.BETWEEN_BOUNDS if o
            else LimitZone.OUTSIDE_OUTER for i, o in zip(inner, outer)]


def limit_band(model, eps):
    """Per-joint (lower, upper) of the limit interval shrunk by eps: the
    one definition of the inner and outer bands, which within() tests
    and limit_status reads; callers run check_eps once per eps pair."""
    return model.lower + eps, model.upper - eps


def within(q, band):
    """Per-joint mask of q inside the closed band; NaN is outside."""
    lo, hi = band
    return (lo <= q) & (q <= hi)


def limit_margin(model, q):
    """Smallest signed distance to a limit, over all joints."""
    q = np.asarray(q, dtype=float)
    return float(np.min(np.minimum(q - model.lower, model.upper - q)))


def self_motion_direction(model, q):
    """dq/dpsi along the flange-preserving self-motion: the augmented
    Jacobian mapped back from a pure elbow-angle rate."""
    _, _, jac, _, jpsi = arm_state(model, q)
    pinv, damped = pseudoinverse(np.vstack([jac, jpsi]))
    return pinv[:, -1].copy(), damped


def self_motion_rollout(model, q0, delta_psi, step=0.01):
    """Integrate the self-motion field over an elbow-angle interval
    with classical Runge-Kutta.  Returns (psi offsets, configurations),
    both including the start."""
    q = np.asarray(q0, dtype=float).copy()
    total = abs(delta_psi)
    sign = 1.0 if delta_psi >= 0.0 else -1.0
    n = max(1, math.ceil(total / step)) if total > 0.0 else 0
    psis = [0.0]
    qs = [q.copy()]
    done = 0.0
    for _ in range(n):
        h = sign * min(step, total - done)
        k1, _ = self_motion_direction(model, q)
        k2, _ = self_motion_direction(model, q + 0.5 * h * k1)
        k3, _ = self_motion_direction(model, q + 0.5 * h * k2)
        k4, _ = self_motion_direction(model, q + h * k3)
        q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done += abs(h)
        psis.append(sign * done)
        qs.append(q.copy())
    return np.array(psis), np.array(qs)
