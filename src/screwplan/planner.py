"""Constant-screw motion planner with elbow-swing joint-limit recovery.

Mode 1 servos the flange toward the goal along the screw geodesic: the
joint update follows the pseudoinverse image of the spatial error twist
log(Gd Gc^-1), whose integral curves stay on the geodesic connecting the
current pose to the goal.  When a tentative step would push any joint
out of the inner limit bound, the step is discarded and Mode 2 swings
the elbow angle along the arm's self-motion until every joint is
comfortable again, holding the flange pose with a feedback term; Mode 1
then resumes.  Each mode-2 step takes one SVD of the world Jacobian J
in kinematics.pseudoinverse, the routine mode 1 uses, reached through
kinematics.self_motion: the pose correction goes through J's
pseudoinverse, and the elbow-angle gap through J's null vector, scaled
so the angle turns at unit rate.  Mode 2 fails where J is singular or
where the elbow angle does not move along the null vector.  A planner
with mode2_enabled=False is the baseline that simply fails at the first
limit event.  Every loop steps from one kinematics chain pass to the
next, which gives the flange, the Jacobian and, for mode 2, the elbow
angle; kinematics.arm_state, their composition, is kept for the tracer.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# arm_state, limit_status, log_pose and pose_error go uncalled:
# perfbench's tracer rebinds them
from .kinematics import (_Chain, arm_state, check_eps, limit_band,
                         limit_margin, limit_status, pseudoinverse,
                         self_motion, self_motion_direction, within)
from .records import (FORMATS, UNITS, Format, InputError, decode, flag,
                      pose_from_record, pose_to_record, real, reals, whole,
                      wholes)
from .screws import Pose, _pose_error, _relative_log, log_pose, pose_error

STEP_CLAMP = 0.05  # per-joint displacement cap per iteration, radians
PSI_TOL = 1e-3  # elbow angle convergence tolerance, radians


class Mode(Enum):
    MODE1 = 1
    MODE2 = 2


class Outcome(Enum):
    REACHED = "reached"
    MOTION_PLAN_FAILED = "motion_plan_failed"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


class InvalidPlannerConfigError(InputError):
    pass


class InvalidTrajectoryError(InputError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    """Gains and bounds for the planning loop.

    kappa scales Mode-1 tracking, lam scales Mode-2 recovery, both per
    unit delta_t.  goal_tol is (radians, meters).  sew_search is the
    (step, half range) of the elbow-angle candidate search.  max_steps
    bounds each segment.  mode2_enabled=False gives the baseline
    planner that fails outright at joint limits.
    """

    eps_in: float = 0.2
    eps_out: float = 0.01
    kappa: float = 1.0
    lam: float = 1.0
    delta_t: float = 0.01
    goal_tol: tuple = (math.radians(0.05), 1e-4)
    max_steps: int = 20000
    sew_search: tuple = (0.01, math.pi)
    mode2_enabled: bool = True

    def __post_init__(self):
        E = InvalidPlannerConfigError
        for name in ("eps_in", "eps_out", "kappa", "lam", "delta_t"):
            object.__setattr__(self, name, real(getattr(self, name), name, E))
        for name in ("goal_tol", "sew_search"):
            object.__setattr__(self, name, reals(getattr(self, name), name,
                                                 E, 2))
        object.__setattr__(self, "max_steps", whole(
            self.max_steps, "max_steps", E, low=1))
        flag(self.mode2_enabled, "mode2_enabled", E)
        if min(self.kappa, self.lam, self.delta_t) <= 0.0:
            raise E("kappa, lam and delta_t must be positive")
        if min(self.goal_tol) <= 0.0:
            raise E("goal_tol must be positive (radians, meters)")
        if not 0.0 < self.sew_search[0] <= self.sew_search[1]:
            raise E("sew_search must be (step, range) with 0 < step <= range")
        if not 0.0 < self.eps_out < self.eps_in:
            raise E("need 0 < eps_out < eps_in")


@dataclass(frozen=True)
class TrajectoryStep:
    """One control step: joint values, mode, the flange rotation and
    translation it reached, and whether its pseudoinverse was damped.
    The arrays are kept, not copied, and made read-only."""

    q: np.ndarray
    mode: Mode
    rotation: np.ndarray
    translation: np.ndarray
    damped: bool = False

    def __post_init__(self):
        for name in ("q", "rotation", "translation"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def end_effector(self):
        """The flange Pose, built and checked on each call."""
        return Pose(self.rotation, self.translation)


# the per-row fields of a trajectory, in row order, and their dtypes
_ROWS = {"q": float, "rotation": float, "translation": float,
         "mode": object, "damped": bool}


class _Steps(Sequence):
    """A trajectory's rows as TrajectoryStep objects, each built when it
    is indexed or iterated; the view holds the trajectory and nothing
    else."""

    __slots__ = ("_traj",)

    def __init__(self, traj):
        self._traj = traj

    def __len__(self):
        return len(self._traj)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        t = self._traj
        return TrajectoryStep(t.q[i], t.mode[i], t.rotation[i],
                              t.translation[i], bool(t.damped[i]))

    def __iter__(self):
        t = self._traj
        for row in zip(t.q, t.mode, t.rotation, t.translation,
                       t.damped.tolist()):
            yield TrajectoryStep(*row)


@dataclass(frozen=True, eq=False)
class JointTrajectory:
    """One read-only array per field, a row per control step: q (n, dof)
    joint values, the flange rotation (n, 3, 3) and translation (n, 3)
    each step reached, its mode (n,) and whether its pseudoinverse was
    damped (n,).  The arrays are kept, not copied, and made read-only.
    segment_starts are the rows where each guiding-pose leg began."""

    q: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    mode: np.ndarray
    damped: np.ndarray
    outcome: Outcome
    segment_starts: list = field(default_factory=lambda: [0])

    def __post_init__(self):
        E = InvalidTrajectoryError
        counts = {}  # each field's row count
        for name, dtype in _ROWS.items():
            try:
                a = np.asarray(getattr(self, name), dtype=dtype)
            except (TypeError, ValueError) as e:
                raise E(f"{name}: {e}") from e
            a.setflags(write=False)
            object.__setattr__(self, name, a)
            counts[name] = len(a) if a.ndim else 0
        if self.q.ndim != 2:
            raise E(f"q must be 2-D (steps, joints), got shape "
                    f"{self.q.shape}")
        n = counts["q"]
        if set(counts.values()) != {n}:
            raise E("rows of unequal count: " + ", ".join(
                f"{name} {k}" for name, k in counts.items()))
        for name, shape in (("rotation", (n, 3, 3)), ("translation", (n, 3)),
                            ("mode", (n,)), ("damped", (n,))):
            if getattr(self, name).shape != shape:
                raise E(f"{name} must have shape {shape}, got "
                        f"{getattr(self, name).shape}")
        if not set(map(type, self.mode.tolist())) <= {Mode}:
            raise E("every mode entry must be a Mode")

    def __len__(self):
        return len(self.q)

    @property
    def steps(self):
        """The rows as TrajectoryStep objects, built on demand."""
        return _Steps(self)

    @property
    def final_q(self):
        return self.q[-1]

    @property
    def final_pose(self):
        return Pose(self.rotation[-1], self.translation[-1])


def _stacked(dof, rows, **fields):
    """A trajectory from per-step (q, rotation, translation, mode,
    damped) rows, stacked once; dof gives q its width when there are no
    rows."""
    n = len(rows)
    qs, Rs, ps, modes, damped = zip(*rows) if rows else [()] * 5
    return JointTrajectory(
        q=np.array(qs, dtype=float).reshape(n, dof),
        rotation=np.array(Rs, dtype=float).reshape(n, 3, 3),
        translation=np.array(ps, dtype=float).reshape(n, 3),
        mode=modes, damped=damped, **fields)


def _clamp(dq):
    worst = max(map(abs, dq.tolist()))
    if worst > STEP_CLAMP:
        return dq * (STEP_CLAMP / worst)
    return dq


def _wrap(angle):
    return math.atan2(math.sin(angle), math.cos(angle))


def calculate_sew_change(q, model, config):
    """Signed elbow-angle change that relieves the joint limits.

    Walks the self-motion in both directions from the offending
    configuration, never extending a direction past an outer-bound
    crossing or a flagged self-motion (arm singular or elbow still).  The
    candidate with the best worst-joint margin wins, when it beats the
    offending configuration's: a margin of eps_in or more means every
    joint is back inside the inner band (deepest recovery, not the first
    escape, so tracking does not immediately re-trigger), a smaller one
    a partial retreat; zero when neither direction helps or nothing is
    wrong.
    """
    q = np.asarray(q, dtype=float)
    check_eps(model, config.eps_in, config.eps_out)
    inner = limit_band(model, config.eps_in)
    outer = limit_band(model, config.eps_out)
    if within(q, inner).all():
        return 0.0
    step, span = config.sew_search
    best, dpsi = limit_margin(model, q), 0.0  # a margin wins by > 1e-12
    walks = {1: q.copy(), -1: q.copy()}  # the live walks, by sign
    for k in range(1, int(math.ceil(span / step)) + 1):
        for sign, q_w in list(walks.items()):
            direction, flag = self_motion_direction(model, q_w)
            candidate = q_w + sign * step * direction
            # a flagged self-motion or an outer-band crossing ends the walk
            if flag or not within(candidate, outer).all():
                del walks[sign]
                continue
            walks[sign] = candidate
            margin = limit_margin(model, candidate)
            if margin > best + 1e-12:
                best, dpsi = margin, sign * k * step
        if not walks:
            break
    return dpsi


def mode2_recovery(q, psi_d, model, config, max_steps=None):
    """Swing the elbow angle to psi_d while holding the flange pose.

    Each step servos back to the pose held at entry (open-loop nulling
    alone drifts past the pose-preservation budget) and closes the
    elbow-angle gap: with x = J+ kappa xi theta, the step is
    x + d (dpsi - jpsi.x) for the self-motion direction d, which is the
    inverse of the Jacobian with jpsi stacked under it applied to the
    stacked correction, without forming that matrix.  The step fails
    when self_motion flags the arm singular or the elbow still.  psi_d
    is an absolute target on the unwrapped angle scale whose zero is
    the entry angle.  Returns a trajectory fragment of MODE2 steps,
    without the entry configuration.  A psi_d that is not a finite
    number, or a max_steps that is not a whole number >= 0, raises
    ValueError.
    """
    psi_d = real(psi_d, "psi_d", ValueError)
    check_eps(model, config.eps_in, config.eps_out)
    outer = limit_band(model, config.eps_out)
    budget = (config.max_steps if max_steps is None
              else whole(max_steps, "max_steps", ValueError))
    gain = config.lam * config.delta_t
    rows = []  # each step's row, stacked on return
    # the entry chain gives the flange held throughout and the angle's zero
    chain = _Chain(model, q)
    hold = R, p = chain.flange()
    psi_prev, jpsi = chain.elbow()
    psi_cont = 0.0  # unwrapped angle relative to entry
    while True:
        if abs(psi_d - psi_cont) < PSI_TOL:
            outcome = Outcome.REACHED
            break
        if len(rows) >= budget:
            outcome = Outcome.STEP_BUDGET_EXHAUSTED
            break
        pinv, d, flag = self_motion(chain.jacobian, jpsi)
        if flag:
            # the arm is singular, or the elbow angle does not move along
            # the self-motion (nor at all where psi has no gradient)
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        # the log checks the flange rotation, the held one on entry
        xi, theta = _relative_log(*hold, R, p)
        x = pinv @ (config.kappa * (xi * theta))
        dq = _clamp(gain * (x + d * (psi_d - psi_cont - jpsi @ x)))
        candidate = chain.q + dq
        if not within(candidate, outer).all():
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        chain = _Chain(model, candidate)
        R, p = chain.flange()
        psi_raw, jpsi = chain.elbow()
        psi_cont += _wrap(psi_raw - psi_prev)
        psi_prev = psi_raw
        rows.append((candidate, R, p, Mode.MODE2, False))
    return _stacked(len(chain.q), rows, outcome=outcome)


def plan_to_pose(q0, gd, model, config):
    """Track the constant-screw geodesic from FK(q0) to gd, swinging
    the elbow out of joint-limit trouble when allowed.  Never raises
    for planning failures; the outcome says how it ended."""
    check_eps(model, config.eps_in, config.eps_out)
    inner = limit_band(model, config.eps_in)
    # gd is a checked Pose; each step works on its float rows and the
    # chain's, and builds no Pose
    Rg, pg = gd.rotation.tolist(), gd.translation.tolist()
    gain = config.kappa * config.delta_t
    chain = _Chain(model, np.array(q0, dtype=float))
    R, p = chain.flange()
    rows = [(chain.q, R, p, Mode.MODE1, False)]  # stacked on return
    iterations = 0
    while True:
        rot, trans = _pose_error(R, p, Rg, pg)
        if rot < config.goal_tol[0] and trans < config.goal_tol[1]:
            outcome = Outcome.REACHED
            break
        if iterations >= config.max_steps:
            outcome = Outcome.STEP_BUDGET_EXHAUSTED
            break
        # tentative mode-1 update along the error twist; the log checks
        # the flange rotation
        xi, theta = _relative_log(Rg, pg, R, p)
        pinv, damped, _ = pseudoinverse(chain.jacobian)
        candidate = chain.q + _clamp(gain * (pinv @ (xi * theta)))
        iterations += 1
        if within(candidate, inner).all():
            chain = _Chain(model, candidate)
            R, p = chain.flange()
            rows.append((candidate, R, p, Mode.MODE1, damped))
            continue
        # tentative step discarded: a joint left the inner bound; the
        # search starts from the offending configuration, recovery from
        # the still-valid one
        if not config.mode2_enabled:
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        dpsi = calculate_sew_change(candidate, model, config)
        if dpsi == 0.0:
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        fragment = mode2_recovery(chain.q, dpsi, model, config,
                                  max_steps=config.max_steps - iterations)
        rows.extend(zip(*(getattr(fragment, name) for name in _ROWS)))
        iterations += len(fragment)
        if fragment.outcome is not Outcome.REACHED:
            outcome = fragment.outcome
            break
        # no step: the target was inside tolerance of the current angle
        if len(fragment) == 0 or not within(fragment.final_q, inner).all():
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        chain = _Chain(model, fragment.final_q)
        R, p = chain.flange()
    return _stacked(len(chain.q), rows, outcome=outcome)


def plan_through_guiding_poses(q0, guiding, model, config):
    """Chain plan_to_pose over consecutive guiding poses; the approach
    from q0 to the first pose is segment zero.  Aborts at the first
    segment that does not reach its goal."""
    if len(guiding) == 0:
        raise ValueError("need at least one guiding pose")
    legs = []
    segment_starts = []
    n = 0
    q_c = np.asarray(q0, dtype=float)
    for goal in guiding:
        # each later leg starts on the row the one before it ended on,
        # and drops that first row when the legs are joined
        segment_starts.append(max(n - 1, 0))
        traj = plan_to_pose(q_c, goal, model, config)
        n += len(traj) - bool(legs)
        legs.append(traj)
        if traj.outcome is not Outcome.REACHED:
            break
        q_c = traj.final_q
    return JointTrajectory(
        **{name: np.concatenate([getattr(leg, name)[min(k, 1):]
                                 for k, leg in enumerate(legs)])
           for name in _ROWS},
        outcome=traj.outcome, segment_starts=segment_starts)


def _trajectory_to_lines(traj, robot=""):
    """A header, then one record per step with its index, mode, joint
    values and end-effector pose."""
    return [{
        "format": "trajectory",
        "units": {"angle": "rad", "length": "m"},
        "robot": robot,
        "outcome": traj.outcome.value,
        "segment_starts": list(traj.segment_starts),
    }, *({
        "step": i,
        "mode": mode.value,
        "q": q.tolist(),
        "pose": pose_to_record(Pose(R, p)),
        "damped": damped,
    } for i, (q, mode, R, p, damped) in enumerate(zip(
        traj.q, traj.mode, traj.rotation, traj.translation,
        traj.damped.tolist())))]


def _trajectory_header(doc):
    return decode(doc, InvalidTrajectoryError, lambda doc: {
        "outcome": Outcome(doc["outcome"]),
        "segment_starts": list(wholes(doc["segment_starts"],
                                      "segment_starts",
                                      InvalidTrajectoryError))},
        "trajectory", UNITS)


def _row_from_record(rec, header):
    # by name ("mode1" in any case) or by value (1), never a JSON boolean
    raw = rec["mode"]
    mode = Mode.__members__.get(str(raw).upper())
    if mode is None and not isinstance(raw, bool) and raw in [
            m.value for m in Mode]:
        mode = Mode(raw)
    if mode is None:
        raise InvalidTrajectoryError(f"{raw!r} is not a valid Mode")
    q = reals(rec["q"], "joint values", InvalidTrajectoryError)
    # the first step's joint count, which every step shares
    if len(q) != header.setdefault("joints", len(q)):
        raise InvalidTrajectoryError(
            f"expected {header['joints']} joint values, got {len(q)}")
    damped = flag(rec.get("damped", False), "damped", InvalidTrajectoryError)
    pose = pose_from_record(rec["pose"])
    return q, pose.rotation, pose.translation, mode, damped


def _check_segment_starts(traj, path):
    """Refuses a trajectory unless its segment_starts begin at 0, never
    decrease and stay below its step count; a leg already at its goal
    adds no step, so two starts may be equal."""
    starts, n = traj.segment_starts, len(traj)
    if not (starts and starts[0] == 0 and starts[-1] < n
            and all(a <= b for a, b in zip(starts, starts[1:]))):
        raise InvalidTrajectoryError(
            f"{path}: segment_starts must begin at 0, never decrease and "
            f"stay below the step count {n}")


FORMATS["trajectory"] = Format(
    InvalidTrajectoryError, _trajectory_to_lines,
    lambda header, rows: _stacked(header.pop("joints", 0), rows, **header),
    lines=(_trajectory_header, _row_from_record),
    check=_check_segment_starts)
