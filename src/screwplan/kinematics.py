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
from functools import cached_property
from enum import Enum
from importlib import resources

import numpy as np

from .screws import (Pose, hat, pose_from_record, pose_to_record,
                     read_document, write_document)

DAMPING = 1e-3
SINGULAR_TOL = 1e-4
REFERENCE_AXIS_TOL = 1e-6
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


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
        # columns v and w, prismatic joints by index, and the point on
        # each joint axis nearest the origin
        hats = np.array([hat(w) for w in twists[:, 3:]])
        consts = dict(
            _hats=hats, _hats2=hats @ hats,
            _v=twists[:, :3, None].copy(), _w=twists[:, 3:, None].copy(),
            _prismatic=np.flatnonzero(
                np.sum(twists[:, 3:] ** 2, axis=1) < 1e-24),
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
    try:
        units = doc["units"]
        if units["length"] != "m" or units["angle"] != "rad":
            raise InvalidRobotError(f"expected units m/rad, got {units}")
        return RobotModel(
            name=doc["name"],
            twists=np.array(doc["twists"], dtype=float),
            home_pose=pose_from_record(doc["home_pose"]),
            lower=np.array(doc["joint_limits"]["lower"], dtype=float),
            upper=np.array(doc["joint_limits"]["upper"], dtype=float),
            sew_indices=tuple(doc["sew_indices"]),
            base_pose=base_pose if base_pose is not None
            else Pose.identity(),
        )
    except InvalidRobotError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidRobotError(f"bad robot file: {e}") from e


def robot_to_record(model):
    """Serializable robot description; the mount pose is runtime state
    and stays out of the record."""
    return {
        "name": model.name,
        "units": {"length": "m", "angle": "rad"},
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

    Every joint's exponential is built at once by broadcasting over the
    model's stacked hat(w), hat(w)^2 and v, in the per-joint term order.
    The rotation chain stays a loop of 3x3 products: a cumulative matrix
    product has no batched form that rounds the same way.  Translations
    then take one stacked product and one cumulative sum, the same adds
    in the same order."""

    def __init__(self, model, q):
        q = np.asarray(q, dtype=float)
        if q.shape != (model.n_joints,):
            raise ValueError(
                f"expected {model.n_joints} joint values, got {q.shape}")
        self.model = model
        # libm sines: numpy's vectorized sin need not round like them
        ql = q.tolist()
        s = np.array([math.sin(x) for x in ql])[:, None, None]
        one_c = np.array([2.0 * math.sin(x / 2.0) ** 2
                          for x in ql])[:, None, None]
        qc = q[:, None, None]
        W, W2 = model._hats, model._hats2
        rot = _EYE3 + s * W + one_c * W2
        vmat = qc * _EYE3 + one_c * W + (qc - s) * W2
        p = (vmat @ model._v)[:, :, 0]
        pri = model._prismatic
        if pri.size:
            rot[pri] = _EYE3
            p[pri] = model._v[pri, :, 0] * q[pri, None]
        rots = np.empty((len(ql) + 1, 3, 3))
        rots[0] = model.base_pose.rotation
        for i in range(len(ql)):
            # the BLAS product that @ makes, with half its dispatch cost
            np.dot(rots[i], rot[i], rots[i + 1])
        trans = np.empty((len(ql) + 1, 3))
        trans[0] = model.base_pose.translation
        trans[1:] = (rots[:-1] @ p[:, :, None])[:, :, 0]
        self.partial_rots = rots
        self.partial_trans = np.cumsum(trans, axis=0)

    @property
    def pose(self):
        r = self.partial_rots[-1] @ self.model.home_pose.rotation
        p = (self.partial_rots[-1] @ self.model.home_pose.translation
             + self.partial_trans[-1])
        return Pose(r, p)

    @cached_property
    def jacobian(self):
        """World-frame Jacobian, columns are joint twists [v; w]; built
        on first use, then shared."""
        rots = self.partial_rots[:-1]
        w = (rots @ self.model._w)[:, :, 0].T
        v = (rots @ self.model._v)[:, :, 0].T
        return np.concatenate([v + _cross(self.partial_trans[:-1].T, w), w])

    def sew_points(self):
        return tuple(self.partial_rots[i] @ self.model._axis_points[i]
                     + self.partial_trans[i] for i in self.model.sew_indices)


def forward_kinematics(model, q):
    return _Chain(model, q).pose


def spatial_jacobian(model, q):
    return _Chain(model, q).jacobian


def fk_jacobian(model, q):
    chain = _Chain(model, q)
    return chain.pose, chain.jacobian


def pseudoinverse(jac):
    """Right pseudoinverse, switching to damped least squares when the
    smallest singular value collapses.  Returns (pinv, damped)."""
    sigma = np.linalg.svd(jac, compute_uv=False)
    damped = bool(sigma[-1] < SINGULAR_TOL)
    jjt = jac @ jac.T
    if damped:
        jjt = jjt + DAMPING ** 2 * np.eye(jac.shape[0])
    return np.linalg.solve(jjt, jac).T, damped


def sew_points(model, q):
    """World shoulder, elbow and wrist points: the reference axis
    points of the three marker joints, carried by the links ahead of
    them."""
    return _Chain(model, q).sew_points()


def _reference_direction(model, u):
    """In-plane zero reference for the elbow angle: base vertical,
    or base x when the shoulder-wrist line is vertical."""
    zhat = model.base_pose.rotation[:, 2]
    if np.linalg.norm(_cross(zhat, u)) < REFERENCE_AXIS_TOL:
        return model.base_pose.rotation[:, 0]
    return zhat


def _sew_angle_from_points(model, s, e, w):
    u = w - s
    u = u / np.linalg.norm(u)
    ref = _reference_direction(model, u)
    r = ref - np.dot(ref, u) * u
    ew = e - s
    f = ew - np.dot(ew, u) * u
    return math.atan2(np.dot(u, _cross(r, f)), np.dot(r, f))


def sew_angle(model, q):
    return _sew_angle_from_points(model, *sew_points(model, q))


def _point_jacobian(jac, point, upto):
    """Velocity of a world point attached ahead of joint `upto`."""
    jp = np.zeros((3, jac.shape[1]))
    if upto:
        v, w = jac[:3, :upto], jac[3:, :upto]
        # w_j x point column-wise
        jp[:, :upto] = v - hat(point) @ w
    return jp


def _sew_jacobian(chain):
    model = chain.model
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
    return psi, jpsi


def sew_state(model, q):
    """(psi, dpsi/dq) in one chain pass."""
    return _sew_jacobian(_Chain(model, q))


def arm_state(model, q):
    """(flange pose, world Jacobian, psi, dpsi/dq) sharing one pass."""
    chain = _Chain(model, q)
    psi, jpsi = _sew_jacobian(chain)
    return chain.pose, chain.jacobian, psi, jpsi


def augmented_jacobian(model, q):
    """World Jacobian with the elbow-angle gradient appended, square
    for a seven-joint arm."""
    pose, jac, psi, jpsi = arm_state(model, q)
    return np.vstack([jac, jpsi])


def check_eps(model, eps_inner, eps_outer):
    span = float(np.min(model.upper - model.lower))
    if not 0.0 < eps_outer < eps_inner < 0.5 * span:
        raise BadEpsError(
            f"need 0 < eps_outer < eps_inner < {0.5 * span:.4f}, got "
            f"inner={eps_inner}, outer={eps_outer}")


def limit_status(model, q, eps_inner, eps_outer):
    """Zone of each joint relative to the shrunk limit intervals."""
    check_eps(model, eps_inner, eps_outer)
    q = np.asarray(q, dtype=float)
    zones = []
    for qi, lo, hi in zip(q, model.lower, model.upper):
        if lo + eps_inner <= qi <= hi - eps_inner:
            zones.append(LimitZone.WITHIN_INNER)
        elif lo + eps_outer <= qi <= hi - eps_outer:
            zones.append(LimitZone.BETWEEN_BOUNDS)
        else:
            zones.append(LimitZone.OUTSIDE_OUTER)
    return zones


def limit_band(model, eps):
    """Per-joint (lower, upper) of the limit interval shrunk by eps; with
    within() it masks limit_status zones without the per-call checks."""
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
    ja = augmented_jacobian(model, q)
    pinv, damped = pseudoinverse(ja)
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
