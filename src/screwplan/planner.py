"""Constant-screw motion planner with elbow-swing joint-limit recovery.

Mode 1 servos the flange toward the goal along the screw geodesic: the
joint update follows the pseudoinverse image of the spatial error twist
log(Gd Gc^-1), whose integral curves stay on the geodesic connecting the
current pose to the goal.  When a tentative step would push any joint
out of the inner limit bound, the step is discarded and Mode 2 swings
the elbow angle along the arm's self-motion until every joint is
comfortable again, holding the flange pose with a feedback term; Mode 1
then resumes.  A planner with mode2_enabled=False is the baseline that
simply fails at the first limit event.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# limit_status, log_pose and pose_error go uncalled: perfbench's tracer
# rebinds them
from .kinematics import (
    _Chain,
    arm_state,
    check_eps,
    limit_band,
    limit_margin,
    limit_status,
    pseudoinverse,
    self_motion_direction,
    within,
)
from .layouts import is_real, is_whole
from .screws import (
    UNITS,
    Pose,
    _pose_error,
    _relative_log,
    decode,
    error_twist,
    log_pose,
    pose_error,
    pose_errors,
    pose_from_record,
    pose_to_record,
    read_lines,
    sclerp_path,
    write_lines,
)

STEP_CLAMP = 0.05  # per-joint displacement cap per iteration, radians
PSI_TOL = 1e-3  # elbow angle convergence tolerance, radians
SCREW_TRACK_TOL = (math.radians(0.5), 1e-3)  # geodesic conformance


class Mode(Enum):
    MODE1 = 1
    MODE2 = 2


class Outcome(Enum):
    REACHED = "reached"
    MOTION_PLAN_FAILED = "motion_plan_failed"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


class InvalidPlannerConfigError(ValueError):
    pass


class InvalidTrajectoryError(ValueError):
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
        gains = ("eps_in", "eps_out", "kappa", "lam", "delta_t")
        if not all(is_real(x) and math.isfinite(x) for x in (
                *(getattr(self, g) for g in gains), *self.goal_tol,
                *self.sew_search)):
            raise InvalidPlannerConfigError("settings must be finite numbers")
        if not isinstance(self.mode2_enabled, bool):
            raise InvalidPlannerConfigError("mode2_enabled must be a bool")
        if not (is_whole(self.max_steps) and self.max_steps >= 1):
            raise InvalidPlannerConfigError(
                "max_steps must be a whole number >= 1")
        for g in gains:
            object.__setattr__(self, g, float(getattr(self, g)))
        object.__setattr__(self, "max_steps", int(self.max_steps))
        if min(self.kappa, self.lam, self.delta_t) <= 0.0:
            raise InvalidPlannerConfigError(
                "kappa, lam and delta_t must be positive")
        if len(self.goal_tol) != 2 or min(self.goal_tol) <= 0.0:
            raise InvalidPlannerConfigError(
                "goal_tol must be positive (radians, meters)")
        if len(self.sew_search) != 2 or self.sew_search[0] <= 0.0 \
                or self.sew_search[1] < self.sew_search[0]:
            raise InvalidPlannerConfigError(
                "sew_search must be (step, range) with 0 < step <= range")
        if not 0.0 < self.eps_out < self.eps_in:
            raise InvalidPlannerConfigError(
                "need 0 < eps_out < eps_in")


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


@dataclass(frozen=True)
class JointTrajectory:
    steps: list
    outcome: Outcome
    segment_starts: list = field(default_factory=list)

    @property
    def final_q(self):
        return self.steps[-1].q

    @property
    def final_pose(self):
        return self.steps[-1].end_effector


def _clamp(dq):
    worst = float(np.abs(dq).max())
    if worst > STEP_CLAMP:
        return dq * (STEP_CLAMP / worst)
    return dq


def _wrap(angle):
    return math.atan2(math.sin(angle), math.cos(angle))


def calculate_sew_change(q, model, config):
    """Signed elbow-angle change that relieves the joint limits.

    Walks the self-motion in both directions from the offending
    configuration, never extending a direction past an outer-bound
    crossing or a self-motion singularity.  Among candidates that put
    every joint back inside the inner bound, the one with the best
    worst-joint margin wins (deepest recovery, not the first escape, so
    tracking does not immediately re-trigger); failing that, the
    candidate that most improves the worst-joint margin (partial
    retreat); zero when neither direction helps or nothing is wrong.
    """
    q = np.asarray(q, dtype=float)
    check_eps(model, config.eps_in, config.eps_out)
    inner = limit_band(model, config.eps_in)
    outer = limit_band(model, config.eps_out)
    if within(q, inner).all():
        return 0.0
    step, span = config.sew_search
    fallback_margin = limit_margin(model, q)
    fallback_dpsi = 0.0
    best_margin = None
    best_dpsi = 0.0
    state = {1: q.copy(), -1: q.copy()}
    alive = {1: True, -1: True}
    for k in range(1, int(math.ceil(span / step)) + 1):
        for sign in (1, -1):
            if not alive[sign]:
                continue
            direction, damped = self_motion_direction(model, state[sign])
            if damped:
                alive[sign] = False
                continue
            candidate = state[sign] + sign * step * direction
            if not within(candidate, outer).all():
                alive[sign] = False
                continue
            state[sign] = candidate
            margin = limit_margin(model, candidate)
            if within(candidate, inner).all():
                if best_margin is None or margin > best_margin + 1e-12:
                    best_margin = margin
                    best_dpsi = sign * k * step
            elif margin > fallback_margin + 1e-12:
                fallback_margin = margin
                fallback_dpsi = sign * k * step
        if not (alive[1] or alive[-1]):
            break
    if best_margin is not None:
        return best_dpsi
    return fallback_dpsi


def mode2_recovery(q, psi_d, model, config, max_steps=None):
    """Swing the elbow angle to psi_d while holding the flange pose.

    The update maps a stacked correction through the augmented
    Jacobian: the spatial rows servo back to the pose held at entry
    (open-loop nulling alone drifts past the pose-preservation budget),
    the last row closes the elbow-angle gap.  psi_d is an absolute
    target on the unwrapped angle scale whose zero is the entry angle.
    Returns a trajectory fragment of MODE2 steps, without the entry
    configuration.
    """
    q_c = np.asarray(q, dtype=float).copy()
    check_eps(model, config.eps_in, config.eps_out)
    outer = limit_band(model, config.eps_out)
    budget = config.max_steps if max_steps is None else max_steps
    steps = []
    outcome = None
    psi_prev = None
    psi_cont = 0.0  # unwrapped angle relative to entry
    while True:
        # each step works on the chain's arrays and builds no Pose
        R, p, jac, psi_raw, jpsi = arm_state(model, q_c)
        if psi_prev is None:
            hold = R, p  # the flange held throughout: the entry pass's
        else:
            psi_cont += _wrap(psi_raw - psi_prev)
            steps.append(TrajectoryStep(q_c, Mode.MODE2, R, p))
        psi_prev = psi_raw
        if abs(psi_d - psi_cont) < PSI_TOL:
            outcome = Outcome.REACHED
            break
        if len(steps) >= budget:
            outcome = Outcome.STEP_BUDGET_EXHAUSTED
            break
        pinv, damped = pseudoinverse(np.vstack([jac, jpsi]))
        if damped:
            # elbow direction unreliable at a self-motion singularity
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        # the log checks the flange rotation, the held one on entry
        xi, theta = _relative_log(*hold, R, p)
        correction = np.concatenate([config.kappa * (xi * theta),
                                     [psi_d - psi_cont]])
        dq = _clamp(config.lam * config.delta_t * (pinv @ correction))
        candidate = q_c + dq
        if not within(candidate, outer).all():
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        q_c = candidate
    return JointTrajectory(steps=steps, outcome=outcome)


def plan_to_pose(q0, gd, model, config):
    """Track the constant-screw geodesic from FK(q0) to gd, swinging
    the elbow out of joint-limit trouble when allowed.  Never raises
    for planning failures; the outcome says how it ended."""
    check_eps(model, config.eps_in, config.eps_out)
    inner = limit_band(model, config.eps_in)
    # gd is a checked Pose; each step works on its arrays and the
    # chain's, and builds no Pose
    Rg, pg = gd.rotation, gd.translation
    q_c = np.asarray(q0, dtype=float).copy()
    steps = []
    pending = (q_c, False)
    iterations = 0
    outcome = None
    while True:
        chain = _Chain(model, q_c)
        R, p = chain.flange()
        if pending is not None:
            steps.append(TrajectoryStep(pending[0], Mode.MODE1, R, p,
                                        pending[1]))
            pending = None
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
        pinv, damped = pseudoinverse(chain.jacobian)
        candidate = q_c + _clamp(config.kappa * config.delta_t
                                 * (pinv @ (xi * theta)))
        iterations += 1
        if within(candidate, inner).all():
            q_c = candidate
            pending = (q_c, damped)
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
        fragment = mode2_recovery(q_c, dpsi, model, config,
                                  max_steps=config.max_steps - iterations)
        steps.extend(fragment.steps)
        iterations += len(fragment.steps)
        if fragment.outcome is not Outcome.REACHED:
            outcome = fragment.outcome if fragment.outcome is \
                Outcome.STEP_BUDGET_EXHAUSTED else Outcome.MOTION_PLAN_FAILED
            break
        if fragment.steps:
            q_c = fragment.steps[-1].q.copy()
        else:
            # target inside tolerance of current angle: nothing to swing
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        if not within(q_c, inner).all():
            outcome = Outcome.MOTION_PLAN_FAILED
            break
    return JointTrajectory(steps=steps, outcome=outcome,
                           segment_starts=[0])


def plan_through_guiding_poses(q0, guiding, model, config):
    """Chain plan_to_pose over consecutive guiding poses; the approach
    from q0 to the first pose is segment zero.  Aborts at the first
    segment that does not reach its goal."""
    if len(guiding) == 0:
        raise ValueError("need at least one guiding pose")
    steps = []
    segment_starts = []
    q_c = np.asarray(q0, dtype=float)
    for idx, goal in enumerate(guiding):
        segment_starts.append(0 if idx == 0 else len(steps) - 1)
        traj = plan_to_pose(q_c, goal, model, config)
        steps.extend(traj.steps if idx == 0 else traj.steps[1:])
        if traj.outcome is not Outcome.REACHED:
            return JointTrajectory(steps=steps, outcome=traj.outcome,
                                   segment_starts=segment_starts)
        q_c = traj.final_q
    return JointTrajectory(steps=steps, outcome=Outcome.REACHED,
                           segment_starts=segment_starts)


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


def save_trajectory(traj, path, robot=""):
    """Line-delimited trajectory file: a header, then one record per
    step with its index, mode, joint values and end-effector pose."""
    write_lines({
        "format": "trajectory",
        "units": {"angle": "rad", "length": "m"},
        "robot": robot,
        "outcome": traj.outcome.value,
        "segment_starts": list(traj.segment_starts),
    }, ({
        "step": i,
        "mode": s.mode.value,
        "q": [float(v) for v in s.q],
        "pose": pose_to_record(s.end_effector),
        "damped": bool(s.damped),
    } for i, s in enumerate(traj.steps)), path)


def _step_from_record(rec, first):
    # by name ("mode1" in any case) or by value (1), never a JSON boolean
    raw = rec["mode"]
    mode = Mode.__members__.get(str(raw).upper())
    if mode is None and not isinstance(raw, bool) and raw in [
            m.value for m in Mode]:
        mode = Mode(raw)
    if mode is None:
        raise InvalidTrajectoryError(f"{raw!r} is not a valid Mode")
    q = np.array(rec["q"], dtype=float)
    if q.ndim != 1 or not np.isfinite(q).all():
        raise InvalidTrajectoryError(
            "joint values must be finite numbers in one flat list")
    if len(q) != first.setdefault("joints", len(q)):
        raise InvalidTrajectoryError(
            f"expected {first['joints']} joint values, got {len(q)}")
    damped = rec.get("damped", False)
    if not isinstance(damped, bool):
        raise InvalidTrajectoryError("damped must be true or false")
    pose = pose_from_record(rec["pose"])
    return TrajectoryStep(q, mode, pose.rotation, pose.translation, damped)


def load_trajectory(path):
    first = {}  # the first step's joint count, which every step shares
    (outcome, starts), steps = read_lines(
        path, InvalidTrajectoryError,
        lambda doc: decode(doc, InvalidTrajectoryError, lambda doc: (
            Outcome(doc["outcome"]), list(doc["segment_starts"])),
            "trajectory", UNITS),
        lambda rec: _step_from_record(rec, first))
    return JointTrajectory(steps=steps, outcome=outcome,
                           segment_starts=starts)
