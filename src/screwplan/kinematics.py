"""Product-of-exponentials kinematics for a serial arm.

A robot is its reference twists (spatial frame, zero configuration,
linear part first), a home pose, joint limits, and the three joints
whose axes carry the shoulder, elbow and wrist points.  The arm's
redundancy is exposed as the shoulder-elbow-wrist angle: the signed
rotation of the elbow about the shoulder-wrist line, measured from the
plane spanned by that line and the base vertical.  One chain pass gives
the Jacobian, and the flange and this angle when asked for; arm_state
composes them for its callers and perfbench's tracer.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

from . import records
from .records import (FORMATS, UNITS, Format, InputError, decode, instance,
                      pose_from_record, pose_to_record, reals, text, wholes)
from .screws import Pose, _apply, _mul, hat

DAMPING = 1e-3
SINGULAR_TOL = 1e-4
REFERENCE_AXIS_TOL = 1e-6


class InvalidRobotError(InputError):
    pass


class BadEpsError(InputError):
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
        E = InvalidRobotError
        text(self.name, "name", E)
        for name in ("home_pose", "base_pose"):
            instance(getattr(self, name), Pose, name, E)
        if not isinstance(self.twists, (list, tuple, np.ndarray)):
            raise E("twists must be a list of rows")
        twists = np.array([reals(row, "twist", E, 6) for row in self.twists])
        n = twists.shape[0]
        lower = np.array(reals(self.lower, "lower", E, n))
        upper = np.array(reals(self.upper, "upper", E, n))
        for row in twists:
            wn = np.linalg.norm(row[3:])
            if abs(wn - 1.0) > 1e-9 and not (
                    wn < 1e-12 and abs(np.linalg.norm(row[:3]) - 1.0) < 1e-9):
                raise E("each twist needs a unit rotation axis, or none "
                        "and a unit translation direction")
        if np.any(lower >= upper):
            raise E("lower limits must be below upper")
        sew = wholes(self.sew_indices, "sew_indices", E, 3)
        if not 0 <= sew[0] < sew[1] < sew[2] < n:
            raise E("sew_indices must be three increasing joint indices")
        for arr in (twists, lower, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "twists", twists)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "sew_indices", sew)
        # the chain's constants as floats: per joint v, w, w x v (for a
        # marker joint its axis point nearest the origin), w x (w x v),
        # the six distinct entries of hat(w)^2 and the marker flag; and
        # the base and home poses as rows
        v, w = twists[:, :3], twists[:, 3:]
        wv = np.cross(w, v)
        hats = hat(w)
        hats2 = (hats @ hats)[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
        object.__setattr__(self, "_joints", tuple(
            (*row, i in sew) for i, row in enumerate(np.hstack(
                [v, w, wv, np.cross(w, wv), hats2]).tolist())))
        for name, pose in (("_base", self.base_pose),
                           ("_home", self.home_pose)):
            object.__setattr__(self, name, (pose.rotation.tolist(),
                                            pose.translation.tolist()))

    @property
    def n_joints(self):
        return self.twists.shape[0]


def robot_from_record(doc):
    """The robot a record describes, mounted at the identity; the
    fields go to RobotModel unread, which reads each once."""
    return decode(doc, InvalidRobotError, lambda doc: RobotModel(
        name=doc["name"], twists=doc["twists"],
        home_pose=pose_from_record(doc["home_pose"]),
        lower=doc["joint_limits"]["lower"],
        upper=doc["joint_limits"]["upper"],
        sew_indices=doc["sew_indices"]), units=UNITS)


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


FORMATS["robot"] = Format(InvalidRobotError, robot_to_record,
                          robot_from_record)


def panda_model():
    """The packaged 7-DoF arm, mounted at the identity."""
    ref = resources.files("screwplan.data").joinpath("panda_arm.json")
    with resources.as_file(ref) as path:
        return records.load("robot", path)


# elbow-bent ready posture of the packaged arm, comfortably inside every
# joint limit; the stock start for activities and examples
PANDA_READY = np.array([0.0, -math.pi / 4, 0.0, -3 * math.pi / 4, 0.0,
                        math.pi / 2, math.pi / 4])


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


class _Chain:
    """One pass down the arm on Python floats at q: the world Jacobian
    as a (6, n) array and as float columns, and in sew the world
    shoulder, elbow and wrist points as float triples (the marker
    joints' axis points, carried by the frames ahead of them).

    The frame (R, t) ahead of joint i carries both joint i's axis and
    the frame its link-(i-1) points live in.  Joint i's world twist is
    the Jacobian column [R v + t x R w; R w].  Its exponential is
    Rodrigues' formula I + s hat(w) + c2 hat(w)^2 and its translation
    integral q v + c2 (w x v) + (q - s) (w x (w x v)), with s = sin q
    and c2 = 1 - cos q; a prismatic joint's zero w leaves I and q v, so
    nothing branches on the joint type.  One 3x3 product then moves the
    frame past the joint: (R E, R p + t)."""

    def __init__(self, model, q):
        q = np.asarray(q, dtype=float)
        if q.shape != (model.n_joints,):
            raise ValueError(
                f"expected {model.n_joints} joint values, got {q.shape}")
        qs = q.tolist()
        if not all(map(math.isfinite, qs)):
            raise ValueError("joint values must be finite")
        self.model, self.q = model, q
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = model._base[0]
        t0, t1, t2 = model._base[1]
        cols = []
        sew = []
        for qi, (vx, vy, vz, wx, wy, wz, ax, ay, az, bx, by, bz,
                 h00, h11, h22, h01, h02, h12, mark) in zip(qs, model._joints):
            ux = r00 * wx + r01 * wy + r02 * wz
            uy = r10 * wx + r11 * wy + r12 * wz
            uz = r20 * wx + r21 * wy + r22 * wz
            cols.append((r00 * vx + r01 * vy + r02 * vz + (t1 * uz - t2 * uy),
                         r10 * vx + r11 * vy + r12 * vz + (t2 * ux - t0 * uz),
                         r20 * vx + r21 * vy + r22 * vz + (t0 * uy - t1 * ux),
                         ux, uy, uz))
            if mark:
                sew.append((r00 * ax + r01 * ay + r02 * az + t0,
                            r10 * ax + r11 * ay + r12 * az + t1,
                            r20 * ax + r21 * ay + r22 * az + t2))
            s = math.sin(qi)
            half = math.sin(0.5 * qi)
            # 2 sin^2(q/2) == 1 - cos q without cancellation near zero
            c2 = 2.0 * (half * half)
            ts = qi - s
            px = qi * vx + c2 * ax + ts * bx
            py = qi * vy + c2 * ay + ts * by
            pz = qi * vz + c2 * az + ts * bz
            # t moves first, by the R it is carried by; R E is written
            # out, since a screws._mul call per joint costs a fifth of
            # the pass
            t0 += r00 * px + r01 * py + r02 * pz
            t1 += r10 * px + r11 * py + r12 * pz
            t2 += r20 * px + r21 * py + r22 * pz
            e00 = 1.0 + c2 * h00
            e11 = 1.0 + c2 * h11
            e22 = 1.0 + c2 * h22
            e01 = c2 * h01 - s * wz
            e10 = c2 * h01 + s * wz
            e02 = c2 * h02 + s * wy
            e20 = c2 * h02 - s * wy
            e12 = c2 * h12 - s * wx
            e21 = c2 * h12 + s * wx
            r00, r01, r02 = (r00 * e00 + r01 * e10 + r02 * e20,
                             r00 * e01 + r01 * e11 + r02 * e21,
                             r00 * e02 + r01 * e12 + r02 * e22)
            r10, r11, r12 = (r10 * e00 + r11 * e10 + r12 * e20,
                             r10 * e01 + r11 * e11 + r12 * e21,
                             r10 * e02 + r11 * e12 + r12 * e22)
            r20, r21, r22 = (r20 * e00 + r21 * e10 + r22 * e20,
                             r20 * e01 + r21 * e11 + r22 * e21,
                             r20 * e02 + r21 * e12 + r22 * e22)
        self.columns = cols
        self.jacobian = np.array(cols).T
        self._end = ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)), \
            (t0, t1, t2)
        self.sew = sew

    def flange(self):
        """Flange (rotation rows, translation) as floats: the frame past
        the last joint carrying the home pose."""
        (R, t), (H, h) = self._end, self.model._home
        return _mul(R, H), _apply(R, h, t)

    def elbow(self):
        """(psi, dpsi/dq): the elbow angle and its gradient on the
        chain's floats.  The one definition of psi.

        u is the shoulder-wrist direction, ew the shoulder-to-elbow offset
        and ref the base vertical, or base x when u lies along it.  With
        m = ref x u, the in-plane reference is r = u x m and
        psi = atan2(-m.ew, r.ew); no subtraction that cancels near the
        reference cone forms r.  With g = u x ew, dpsi = ce.d(e - s) +
        ca.d(w - s) for ce = g/|g|^2 and ca = -((ref.u) m/|m|^2 +
        (ew.u) ce)/|w - s|.  A point p carried ahead of joint i moves at
        v_i + w_i x p, so each marker point with coefficient c adds
        c.v_i + (p x c).w_i to every column before its marker joint; the
        markers ahead of a column sum to one (c, p x c) pair, and the
        shoulder's, elbow's and wrist's c sum to zero."""
        model = self.model
        s, e, w = self.sew
        a = _sub(w, s)
        na = math.hypot(*a)
        if na == 0.0:
            # shoulder on the wrist: no plane, so psi has no gradient
            return 0.0, np.zeros(len(self.q))
        u = a[0] / na, a[1] / na, a[2] / na
        base = model._base[0]
        ref = base[0][2], base[1][2], base[2][2]
        m = _cross(ref, u)
        if math.hypot(*m) < REFERENCE_AXIS_TOL:
            ref = base[0][0], base[1][0], base[2][0]
            m = _cross(ref, u)
        ew = _sub(e, s)
        psi = math.atan2(-_dot(m, ew), _dot(_cross(u, m), ew))
        g = _cross(u, ew)
        gg = _dot(g, g)
        jpsi = [0.0] * len(self.q)
        # an elbow on the shoulder-wrist line leaves psi without a gradient
        if gg != 0.0:
            ce = g[0] / gg, g[1] / gg, g[2] / gg
            k = _dot(ref, u) / _dot(m, m)
            h = _dot(ew, u)
            ca = tuple(-(k * mi + h * ci) / na for mi, ci in zip(m, ce))
            # (c, p x c) summed over the markers ahead of each range of
            # columns; ahead of the shoulder the c cancel, and the moments
            # are taken about the shoulder
            wca = _cross(w, ca)
            ranges = (
                ((0.0, 0.0, 0.0), _add(_cross(ew, ce), _cross(a, ca))),
                (_add(ce, ca), _add(_cross(e, ce), wca)),
                (ca, wca))
            cols = self.columns
            for lo, hi, ((cx, cy, cz), (kx, ky, kz)) in zip(
                    (0,) + model.sew_indices, model.sew_indices, ranges):
                for j, (vx, vy, vz, ox, oy, oz) in enumerate(cols[lo:hi], lo):
                    jpsi[j] = (cx * vx + cy * vy + cz * vz
                               + kx * ox + ky * oy + kz * oz)
        return psi, np.array(jpsi)


def forward_kinematics(model, q):
    return Pose(*_Chain(model, q).flange())


def pseudoinverse(jac):
    """(pinv, damped, null) from one full SVD of jac: the right
    pseudoinverse for six joints or more, the left one below, switched
    to damped least squares when the smallest singular value collapses
    below SINGULAR_TOL; and null, the rows of V^T past the singular
    values, which span jac's null space (one row for seven joints, none
    for six or fewer)."""
    u, sigma, vt = np.linalg.svd(jac)
    k = len(sigma)
    damped = bool(sigma[-1] < SINGULAR_TOL)
    d = sigma / (sigma * sigma + DAMPING ** 2) if damped else 1.0 / sigma
    return (vt[:k].T * d) @ u[:, :k].T, damped, vt[k:]


def arm_state(model, q):
    """(R, p, jac, psi, dpsi/dq) of one chain pass: its flange as float
    rows, world Jacobian, and elbow angle with its gradient."""
    chain = _Chain(model, q)
    return (*chain.flange(), chain.jacobian, *chain.elbow())


def sew_angle(model, q):
    return _Chain(model, q).elbow()[0]


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


def self_motion(jac, jpsi):
    """(J+, d, flag) from pseudoinverse(J) of the world Jacobian J.

    J+ is the pseudoinverse of J.  d is the joint rate along the
    flange-preserving self-motion that turns the elbow angle at unit
    rate: with N the null rows pseudoinverse returns and b = N jpsi,
    d = N^T b/(b.b), so J d = 0 and jpsi.d = 1.  flag names the tests
    that fired, empty when none: "arm singular" when pseudoinverse
    damped (the smallest singular value of J is below SINGULAR_TOL),
    and "elbow still" when |b| is below SINGULAR_TOL, so the elbow
    angle does not move along the self-motion (and |d| = 1/|b| would
    pass 1/SINGULAR_TOL).  J+ and d are zeros when flagged."""
    pinv, damped, null = pseudoinverse(jac)
    b = null @ jpsi
    bb = float(b @ b)
    flag = tuple(name for name, fired in (
        ("arm singular", damped),
        ("elbow still", bb < SINGULAR_TOL ** 2)) if fired)
    if flag:
        return np.zeros(jac.shape[::-1]), np.zeros(jac.shape[1]), flag
    return pinv, b @ null / bb, flag


def self_motion_direction(model, q):
    """(d, flag) of self_motion at q: dq/dpsi along the
    flange-preserving self-motion, zeros when flagged."""
    chain = _Chain(model, q)
    return self_motion(chain.jacobian, chain.elbow()[1])[1:]


def self_motion_rollout(model, q0, delta_psi, step=0.01):
    """Integrate the self-motion field over an elbow-angle interval
    with classical Runge-Kutta.  Returns (psi offsets, configurations),
    both including the start.  A flagged self-motion raises ValueError
    naming the test that fired, as do a delta_psi that is not a finite
    number and a step that is not a finite number > 0."""
    delta_psi = records.real(delta_psi, "delta_psi", ValueError)
    if records.real(step, "step", ValueError) <= 0.0:
        raise ValueError("step must be > 0")

    def rate(q):
        d, flag = self_motion_direction(model, q)
        if flag:
            raise ValueError(f"no self-motion to follow: {', '.join(flag)}")
        return d

    q = np.asarray(q0, dtype=float).copy()
    total = abs(delta_psi)
    sign = 1.0 if delta_psi >= 0.0 else -1.0
    n = max(1, math.ceil(total / step)) if total > 0.0 else 0
    psis = [0.0]
    qs = [q.copy()]
    done = 0.0
    for _ in range(n):
        h = sign * min(step, total - done)
        k1 = rate(q)
        k2 = rate(q + 0.5 * h * k1)
        k3 = rate(q + 0.5 * h * k2)
        k4 = rate(q + h * k3)
        q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done += abs(h)
        psis.append(sign * done)
        qs.append(q.copy())
    return np.array(psis), np.array(qs)
