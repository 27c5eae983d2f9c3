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

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kinematics import (
    arm_state,
    check_eps,
    fk_jacobian,
    forward_kinematics,
    limit_band,
    limit_margin,
    limit_status,
    pseudoinverse,
    self_motion_direction,
    within,
    LimitZone,
)
from .screws import (
    Pose,
    compose,
    error_twist,
    exp_screw,
    inverse,
    log_pose,
    pose_error,
    pose_from_record,
    pose_to_record,
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
        if not all(map(math.isfinite, (
                self.eps_in, self.eps_out, self.kappa, self.lam,
                self.delta_t, *self.goal_tol, *self.sew_search))):
            raise InvalidPlannerConfigError("settings must be finite")
        if min(self.kappa, self.lam, self.delta_t) <= 0.0:
            raise InvalidPlannerConfigError(
                "kappa, lam and delta_t must be positive")
        if len(self.goal_tol) != 2 or min(self.goal_tol) <= 0.0:
            raise InvalidPlannerConfigError(
                "goal_tol must be positive (radians, meters)")
        if self.max_steps < 1:
            raise InvalidPlannerConfigError("max_steps must be >= 1")
        if len(self.sew_search) != 2 or self.sew_search[0] <= 0.0 \
                or self.sew_search[1] < self.sew_search[0]:
            raise InvalidPlannerConfigError(
                "sew_search must be (step, range) with 0 < step <= range")
        if not 0.0 < self.eps_out < self.eps_in:
            raise InvalidPlannerConfigError(
                "need 0 < eps_out < eps_in")


@dataclass(frozen=True)
class TrajectoryStep:
    q: np.ndarray
    mode: Mode
    end_effector: Pose
    damped: bool = False


@dataclass(frozen=True)
class JointTrajectory:
    steps: list
    outcome: Outcome
    segment_starts: list = field(default_factory=list)

    def joint_path(self):
        return np.array([s.q for s in self.steps])

    @property
    def final_q(self):
        return self.steps[-1].q

    @property
    def final_pose(self):
        return self.steps[-1].end_effector


def _clamp(dq):
    worst = float(np.max(np.abs(dq)))
    if worst > STEP_CLAMP:
        return dq * (STEP_CLAMP / worst)
    return dq


def _wrap(angle):
    return math.atan2(math.sin(angle), math.cos(angle))


def _reached(pose, gd, config):
    rot, trans = pose_error(pose, gd)
    return rot < config.goal_tol[0] and trans < config.goal_tol[1]


def _track(q, pose, jac, gd, config):
    """Tentative mode-1 update from q at flange pose: (q + dq, damped)."""
    xi = error_twist(gd, pose)
    pinv, damped = pseudoinverse(jac)
    return q + _clamp(config.kappa * config.delta_t * (pinv @ xi)), damped


def mode1_step(q, gd, model, config):
    """One tracking update toward gd; q unchanged when already within
    goal tolerance."""
    q = np.asarray(q, dtype=float)
    pose, jac = fk_jacobian(model, q)
    if _reached(pose, gd, config):
        return q.copy()
    return _track(q, pose, jac, gd, config)[0]


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
    zones = limit_status(model, q, config.eps_in, config.eps_out)
    if all(z is LimitZone.WITHIN_INNER for z in zones):
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
            zones = limit_status(model, candidate, config.eps_in,
                                 config.eps_out)
            if any(z is LimitZone.OUTSIDE_OUTER for z in zones):
                alive[sign] = False
                continue
            state[sign] = candidate
            margin = limit_margin(model, candidate)
            if all(z is LimitZone.WITHIN_INNER for z in zones):
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
    budget = config.max_steps if max_steps is None else max_steps
    hold = forward_kinematics(model, q_c)
    steps = []
    outcome = None
    psi_prev = None
    psi_cont = 0.0  # unwrapped angle relative to entry
    while True:
        pose, jac, psi_raw, jpsi = arm_state(model, q_c)
        if psi_prev is not None:
            psi_cont += _wrap(psi_raw - psi_prev)
            steps.append(TrajectoryStep(q_c.copy(), Mode.MODE2, pose))
        psi_prev = psi_raw
        if abs(psi_d - psi_cont) < PSI_TOL:
            outcome = Outcome.REACHED
            break
        if len(steps) >= budget:
            outcome = Outcome.STEP_BUDGET_EXHAUSTED
            break
        ja = np.vstack([jac, jpsi])
        pinv, damped = pseudoinverse(ja)
        if damped:
            # elbow direction unreliable at a self-motion singularity
            outcome = Outcome.MOTION_PLAN_FAILED
            break
        correction = np.concatenate([
            config.kappa * error_twist(hold, pose),
            [psi_d - psi_cont]])
        dq = _clamp(config.lam * config.delta_t * (pinv @ correction))
        candidate = q_c + dq
        zones = limit_status(model, candidate, config.eps_in,
                             config.eps_out)
        if any(z is LimitZone.OUTSIDE_OUTER for z in zones):
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
    q_c = np.asarray(q0, dtype=float).copy()
    steps = []
    pending = (q_c.copy(), False)
    iterations = 0
    outcome = None
    while True:
        pose, jac = fk_jacobian(model, q_c)
        if pending is not None:
            steps.append(TrajectoryStep(pending[0], Mode.MODE1, pose,
                                        pending[1]))
            pending = None
        if _reached(pose, gd, config):
            outcome = Outcome.REACHED
            break
        if iterations >= config.max_steps:
            outcome = Outcome.STEP_BUDGET_EXHAUSTED
            break
        candidate, damped = _track(q_c, pose, jac, gd, config)
        iterations += 1
        if within(candidate, inner).all():
            q_c = candidate
            pending = (q_c.copy(), damped)
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
    between start and goal: (max rotation, max translation).

    Each pose is matched to its closest geodesic point: a weighted
    twist projection seeds the parameter (second-order accurate near
    the geodesic), then two rounds of three-point parabolic refinement
    tighten it.  The reported deviation is an upper bound that is tight
    for near-geodesic sequences.
    """
    xi, theta = log_pose(compose(goal, inverse(start)))
    chord = xi.array() * theta
    weights = np.concatenate([np.full(3, 1.0 / translation_scale ** 2),
                              np.ones(3)])
    denom = float(chord @ (weights * chord))

    def at(tau, pose):
        rot, trans = pose_error(pose,
                                compose(exp_screw(xi, tau * theta), start))
        return rot + trans / translation_scale, rot, trans

    max_rot = 0.0
    max_trans = 0.0
    for pose in poses:
        if denom < 1e-18:
            tau = 0.0
        else:
            sigma = error_twist(pose, start)
            tau = float(sigma @ (weights * chord)) / denom
        tau = min(max(tau, 0.0), 1.0)
        best = at(tau, pose)
        width = 0.004
        for _ in range(2):
            lo = at(tau - width, pose)
            hi = at(tau + width, pose)
            # parabola through the three samples
            curve = lo[0] - 2.0 * best[0] + hi[0]
            if curve > 1e-18:
                shift = 0.5 * width * (lo[0] - hi[0]) / curve
                shift = min(max(shift, -width), width)
                trial = at(tau + shift, pose)
                candidates = [(best, 0.0), (lo, -width), (hi, width),
                              (trial, shift)]
            else:
                candidates = [(best, 0.0), (lo, -width), (hi, width)]
            best, offset = min(candidates, key=lambda c: c[0][0])
            tau += offset
            width *= 0.2
        max_rot = max(max_rot, best[1])
        max_trans = max(max_trans, best[2])
    return max_rot, max_trans


def save_trajectory(traj, path, robot=""):
    """Line-delimited trajectory file: a header, then one record per
    step with its index, mode, joint values and end-effector pose."""
    header = {
        "format": "trajectory",
        "units": {"angle": "rad", "length": "m"},
        "robot": robot,
        "outcome": traj.outcome.value,
        "segment_starts": list(traj.segment_starts),
    }
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for i, s in enumerate(traj.steps):
            f.write(json.dumps({
                "step": i,
                "mode": s.mode.value,
                "q": [float(v) for v in s.q],
                "pose": pose_to_record(s.end_effector),
                "damped": bool(s.damped),
            }) + "\n")


def load_trajectory(path):
    with open(path) as f:
        header = json.loads(f.readline())
        if header.get("format") != "trajectory":
            raise ValueError("not a trajectory file")
        steps = []
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            steps.append(TrajectoryStep(
                q=np.array(rec["q"], dtype=float),
                mode=Mode[rec["mode"].upper()] if isinstance(
                    rec["mode"], str) else Mode(rec["mode"]),
                end_effector=pose_from_record(rec["pose"]),
                damped=bool(rec.get("damped", False))))
    return JointTrajectory(steps=steps,
                           outcome=Outcome(header["outcome"]),
                           segment_starts=list(header["segment_starts"]))
