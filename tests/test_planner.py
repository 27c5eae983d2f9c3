"""Planner behavior: geodesic tracking, limit recovery, outcomes."""

import dataclasses
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwplan import planner, records
from screwplan.activity import run_activity
from screwplan.kinematics import (
    PANDA_READY,
    LimitZone,
    _Chain,
    arm_state,
    check_eps,
    forward_kinematics,
    limit_band,
    limit_margin,
    limit_status,
    panda_model,
    pseudoinverse,
    self_motion,
    self_motion_direction,
    self_motion_rollout,
    sew_angle,
    within,
)
from screwplan.planner import (
    InvalidPlannerConfigError,
    InvalidTrajectoryError,
    JointTrajectory,
    Mode,
    Outcome,
    PlannerConfig,
    PSI_TOL,
    STEP_CLAMP,
    TrajectoryStep,
    _clamp,
    _wrap,
    calculate_sew_change,
    mode2_recovery,
    plan_through_guiding_poses,
    plan_to_pose,
)
from screwplan.scenarios import near_limit_scenarios
from screwplan.screws import (
    Pose,
    ScrewDisplacement,
    compose,
    exp_screw,
    inverse,
    log_pose,
    pose_error,
    unit_twist,
)
from util import (SCREW_TRACK_TOL, error_twist, geodesic_deviation,
                  pinned_counts, prismatic_toy, python_calls,
                  toy_with_wrist)

READY = np.array([0.0, -np.pi / 4, 0.0, -3 * np.pi / 4, 0.0, np.pi / 2,
                  np.pi / 4])
MODEL = panda_model()
START = forward_kinematics(MODEL, READY)


def world_turn(angle):
    return exp_screw(np.concatenate([np.zeros(3), [0.0, 0.0, 1.0]]), angle)


def screw_goal(axis, point, pitch, theta):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    m = np.cross(point, axis)
    s = ScrewDisplacement(axis, m - (m @ axis) * axis, pitch, theta)
    return compose(exp_screw(unit_twist(s), theta), START)


def tightened(joint, lower_off, upper_off, at=READY):
    lower = MODEL.lower.copy()
    upper = MODEL.upper.copy()
    lower[joint] = at[joint] + lower_off
    upper[joint] = at[joint] + upper_off
    return dataclasses.replace(MODEL, lower=lower, upper=upper)


# the paired near-limit setup: the goal asks for more base yaw than the
# tightened joint 0 may give, so tracking must hand the yaw to the
# other roll joints via an elbow swing
LIMIT_MODEL = tightened(0, -0.4, 0.4)
LIMIT_GOAL = compose(world_turn(0.5), START)


def test_config_validation():
    with pytest.raises(InvalidPlannerConfigError):
        PlannerConfig(kappa=0.0)
    with pytest.raises(InvalidPlannerConfigError):
        PlannerConfig(goal_tol=(0.001, -1.0))
    with pytest.raises(InvalidPlannerConfigError):
        PlannerConfig(max_steps=0)
    with pytest.raises(InvalidPlannerConfigError):
        PlannerConfig(sew_search=(0.5, 0.1))
    with pytest.raises(InvalidPlannerConfigError):
        PlannerConfig(eps_in=0.01, eps_out=0.2)
    for bad in (dict(kappa=math.nan), dict(lam=math.nan),
                dict(delta_t=math.inf), dict(eps_in=math.nan),
                dict(eps_out=math.nan), dict(goal_tol=(math.nan, 1e-4)),
                dict(sew_search=(0.01, math.inf))):
        with pytest.raises(InvalidPlannerConfigError):
            PlannerConfig(**bad)


def test_goal_at_start_is_immediate():
    traj = plan_to_pose(READY, START, MODEL, PlannerConfig())
    assert traj.outcome is Outcome.REACHED
    assert len(traj.steps) == 1
    assert traj.steps[0].mode is Mode.MODE1
    assert_allclose(traj.final_q, READY)


def test_mode1_step_basics():
    # a one-step budget makes plan_to_pose a single tracking update
    config = PlannerConfig(max_steps=1)
    assert_allclose(plan_to_pose(READY, START, MODEL, config).final_q,
                    READY)
    goal = compose(Pose(np.eye(3), np.array([0.0, 0.0, -0.01])), START)
    traj = plan_to_pose(READY, goal, MODEL, config)
    assert traj.outcome is Outcome.STEP_BUDGET_EXHAUSTED
    assert len(traj.steps) == 2
    moved = forward_kinematics(MODEL, traj.final_q)
    _, before = pose_error(START, goal)
    _, after = pose_error(moved, goal)
    assert after < before


def test_reaches_goal_within_tolerance():
    config = PlannerConfig()
    goal = screw_goal([0.2, -0.4, 0.9], START.translation + 0.1, 0.03, 0.7)
    traj = plan_to_pose(READY, goal, MODEL, config)
    assert traj.outcome is Outcome.REACHED
    rot, trans = pose_error(traj.final_pose, goal)
    assert rot < config.goal_tol[0] and trans < config.goal_tol[1]
    assert all(s.mode is Mode.MODE1 for s in traj.steps)
    assert all(isinstance(s.damped, bool) for s in traj.steps)
    # recorded flange poses are the forward kinematics of recorded q
    for s in traj.steps[:: max(1, len(traj.steps) // 7)]:
        rot, trans = pose_error(forward_kinematics(MODEL, s.q),
                                Pose(s.rotation, s.translation))
        assert rot < 1e-9 and trans < 1e-9


def test_tracking_stays_on_geodesic():
    goal = screw_goal([0.1, 0.8, 0.5], START.translation - 0.1, -0.04, 0.8)
    traj = plan_to_pose(READY, goal, MODEL, PlannerConfig())
    assert traj.outcome is Outcome.REACHED
    rot, trans = geodesic_deviation(
        START, goal, [Pose(s.rotation, s.translation) for s in traj.steps])
    assert rot < SCREW_TRACK_TOL[0]
    assert trans < SCREW_TRACK_TOL[1]


def reference_geodesic_deviation(start, goal, poses, translation_scale=1.0):
    """geodesic_deviation one pose at a time through pose objects: the
    batched version must agree with it within 1e-12."""
    xi, theta = log_pose(compose(goal, inverse(start)))
    chord = xi * theta
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


def test_geodesic_deviation_matches_scalar_reference():
    plans = [(MODEL, screw_goal([0.1, 0.8, 0.5], START.translation - 0.1,
                                -0.04, 0.8), 1.0),
             (MODEL, compose(world_turn(0.3), START), 0.1),
             (LIMIT_MODEL, LIMIT_GOAL, 1.0),
             (MODEL, compose(Pose(np.eye(3), np.array([0.05, -0.04, 0.03])),
                             START), 1.0)]
    for model, goal, scale in plans:
        traj = plan_to_pose(READY, goal, model, PlannerConfig())
        poses = [Pose(s.rotation, s.translation) for s in traj.steps]
        got = geodesic_deviation(START, goal, poses, scale)
        want = reference_geodesic_deviation(START, goal, poses, scale)
        assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert geodesic_deviation(START, goal, iter(poses), scale) == got
    # start == goal: a zero chord, every pose matched to the start
    assert_allclose(geodesic_deviation(START, START, poses),
                    reference_geodesic_deviation(START, START, poses),
                    rtol=0.0, atol=1e-12)
    assert geodesic_deviation(START, goal, []) == (0.0, 0.0)
    assert reference_geodesic_deviation(START, goal, []) == (0.0, 0.0)


def test_mode1_error_is_monotone():
    goal = screw_goal([0.0, 0.0, 1.0], START.translation, 0.05, 0.9)
    traj = plan_to_pose(READY, goal, MODEL, PlannerConfig())
    assert traj.outcome is Outcome.REACHED
    last = None
    for s in traj.steps:
        rot, trans = pose_error(Pose(s.rotation, s.translation), goal)
        combined = rot + trans
        if last is not None:
            assert combined <= last + 1e-9
        last = combined


def test_step_clamp_and_continuity():
    config = PlannerConfig(kappa=200.0)
    goal = compose(world_turn(0.4), START)
    traj = plan_to_pose(READY, goal, MODEL, config)
    qs = np.array([s.q for s in traj.steps])
    jumps = np.abs(np.diff(qs, axis=0))
    assert jumps.max() <= STEP_CLAMP + 1e-12


def test_budget_exhaustion():
    config = PlannerConfig(max_steps=5)
    goal = compose(world_turn(0.8), START)
    traj = plan_to_pose(READY, goal, MODEL, config)
    assert traj.outcome is Outcome.STEP_BUDGET_EXHAUSTED
    assert len(traj.steps) <= 6


def test_kappa_speeds_convergence():
    goal = compose(world_turn(0.3), START)
    slow = plan_to_pose(READY, goal, MODEL, PlannerConfig(kappa=1.0))
    fast = plan_to_pose(READY, goal, MODEL, PlannerConfig(kappa=2.0))
    assert slow.outcome is Outcome.REACHED
    assert fast.outcome is Outcome.REACHED
    assert len(fast.steps) < 0.7 * len(slow.steps)


def test_baseline_fails_where_recovery_succeeds():
    baseline = plan_to_pose(READY, LIMIT_GOAL, LIMIT_MODEL,
                            PlannerConfig(mode2_enabled=False))
    assert baseline.outcome is Outcome.MOTION_PLAN_FAILED
    assert all(s.mode is Mode.MODE1 for s in baseline.steps)

    config = PlannerConfig()
    traj = plan_to_pose(READY, LIMIT_GOAL, LIMIT_MODEL, config)
    assert traj.outcome is Outcome.REACHED
    modes = [s.mode for s in traj.steps]
    assert Mode.MODE2 in modes
    # the tightened joint never leaves its inner bound on record
    for s in traj.steps:
        zones = limit_status(LIMIT_MODEL, s.q, config.eps_in,
                             config.eps_out)
        assert zones[0] is LimitZone.WITHIN_INNER
        assert not any(z is LimitZone.OUTSIDE_OUTER for z in zones)


def test_recovery_preserves_pose_and_swings_elbow():
    config = PlannerConfig()
    traj = plan_to_pose(READY, LIMIT_GOAL, LIMIT_MODEL, config)
    modes = [s.mode for s in traj.steps]
    first = modes.index(Mode.MODE2)
    last = max(i for i, m in enumerate(modes) if m is Mode.MODE2)
    entry = traj.steps[first - 1]
    exit_ = traj.steps[last]
    rot, trans = pose_error(Pose(entry.rotation, entry.translation),
                            Pose(exit_.rotation, exit_.translation))
    assert trans < 1e-4
    assert rot < math.radians(0.1)
    swing = sew_angle(LIMIT_MODEL, exit_.q) - sew_angle(LIMIT_MODEL,
                                                        entry.q)
    assert abs(swing) > 0.05


def test_calculate_sew_change_restores_inner():
    # one roll joint pushed just past its inner bound, everything else
    # comfortable: the swing must bring all joints back inside
    model = tightened(0, -0.5, 0.185)
    config = PlannerConfig()
    zones = limit_status(model, READY, config.eps_in, config.eps_out)
    assert zones[0] is LimitZone.BETWEEN_BOUNDS
    dpsi = calculate_sew_change(READY, model, config)
    assert dpsi != 0.0
    _, qs = self_motion_rollout(model, READY, dpsi, step=0.005)
    after = limit_status(model, qs[-1], config.eps_in, config.eps_out)
    assert all(z is LimitZone.WITHIN_INNER for z in after)


def test_calculate_sew_change_defensive_zero():
    assert calculate_sew_change(READY, MODEL, PlannerConfig()) == 0.0


def test_calculate_sew_change_antagonistic_zero():
    # joints 0 and 2 pinned just past inner bounds on the same side;
    # the self-motion moves them oppositely, so any swing that helps
    # one worsens the other
    lower = MODEL.lower.copy()
    upper = MODEL.upper.copy()
    upper[0] = READY[0] + 0.185
    lower[0] = READY[0] - 0.5
    upper[2] = READY[2] + 0.185
    lower[2] = READY[2] - 0.5
    model = dataclasses.replace(MODEL, lower=lower, upper=upper)
    config = PlannerConfig()
    zones = limit_status(model, READY, config.eps_in, config.eps_out)
    assert zones[0] is LimitZone.BETWEEN_BOUNDS
    assert zones[2] is LimitZone.BETWEEN_BOUNDS
    assert calculate_sew_change(READY, model, config) == 0.0


def test_antagonistic_scenario_fails_cleanly():
    config = PlannerConfig()
    lower = LIMIT_MODEL.lower.copy()
    upper = LIMIT_MODEL.upper.copy()
    upper[2] = READY[2] + 0.22
    lower[2] = READY[2] - 0.22
    model = dataclasses.replace(LIMIT_MODEL, lower=lower, upper=upper)
    traj = plan_to_pose(READY, LIMIT_GOAL, model, config)
    assert traj.outcome is Outcome.MOTION_PLAN_FAILED


def test_mode2_recovery_fragment():
    config = PlannerConfig()
    # already at target: empty fragment
    frag = mode2_recovery(READY, 0.0005, MODEL, config)
    assert frag.outcome is Outcome.REACHED
    assert len(frag) == 0
    # a budget of 0 is spent, not refused
    frag = mode2_recovery(READY, -0.3, MODEL, config, max_steps=0)
    assert frag.outcome is Outcome.STEP_BUDGET_EXHAUSTED
    assert len(frag) == 0
    # a real swing holds the pose and lands on the target angle
    frag = mode2_recovery(READY, -0.3, MODEL, config)
    assert frag.outcome is Outcome.REACHED
    assert all(s.mode is Mode.MODE2 for s in frag.steps)
    rot, trans = pose_error(frag.final_pose, START)
    assert trans < 1e-4 and rot < math.radians(0.1)
    swing = sew_angle(MODEL, frag.final_q) - sew_angle(MODEL, READY)
    assert abs(swing - (-0.3)) < 2e-3


@pytest.mark.parametrize("psi_d, max_steps, field", [
    (math.nan, None, "psi_d"), (math.inf, None, "psi_d"),
    (-math.inf, None, "psi_d"), ("0.3", None, "psi_d"),
    (-0.3, -3, "max_steps"), (-0.3, 2.5, "max_steps"),
    (-0.3, math.nan, "max_steps")])
def test_mode2_recovery_refuses_bad_arguments(psi_d, max_steps, field):
    with pytest.raises(ValueError, match=field):
        mode2_recovery(READY, psi_d, MODEL, PlannerConfig(),
                       max_steps=max_steps)


def test_mode2_lam_scales_step_count():
    config1 = PlannerConfig(lam=1.0)
    config2 = PlannerConfig(lam=2.0)
    n1 = len(mode2_recovery(READY, -0.4, MODEL, config1).steps)
    n2 = len(mode2_recovery(READY, -0.4, MODEL, config2).steps)
    assert 0.35 * n1 < n2 < 0.65 * n1


def test_plan_through_guiding_poses():
    config = PlannerConfig()
    lift = compose(Pose(np.eye(3), np.array([0.0, 0.0, 0.1])), START)
    turned = compose(world_turn(0.35), lift)
    down = compose(Pose(np.eye(3), np.array([0.0, 0.0, -0.08])), turned)
    guiding = [START, lift, turned, down]
    traj = plan_through_guiding_poses(READY, guiding, MODEL, config)
    assert traj.outcome is Outcome.REACHED
    assert len(traj.segment_starts) == 4
    assert traj.segment_starts[0] == 0
    # segment 1 also starts at 0: the approach leg is already complete
    assert traj.segment_starts == sorted(traj.segment_starts)
    assert traj.segment_starts[2] > 0
    # the step where segment k begins sits on guiding pose k-1
    for k in range(1, 4):
        boundary = traj.steps[traj.segment_starts[k]]
        rot, trans = pose_error(
            Pose(boundary.rotation, boundary.translation), guiding[k - 1])
        assert rot < config.goal_tol[0] and trans < config.goal_tol[1]
    rot, trans = pose_error(traj.final_pose, down)
    assert rot < config.goal_tol[0] and trans < config.goal_tol[1]
    # vertical lift leg stays on the vertical line
    seg = traj.steps[traj.segment_starts[1]:traj.segment_starts[2] + 1]
    for s in seg:
        assert_allclose(s.translation[:2],
                        START.translation[:2], atol=SCREW_TRACK_TOL[1])


def test_plan_through_aborts_on_failing_segment():
    config = PlannerConfig(mode2_enabled=False)
    guiding = [START, LIMIT_GOAL]
    traj = plan_through_guiding_poses(READY, guiding, LIMIT_MODEL, config)
    assert traj.outcome is Outcome.MOTION_PLAN_FAILED
    assert len(traj.segment_starts) == 2
    with pytest.raises(ValueError):
        plan_through_guiding_poses(READY, [], MODEL, config)


def test_determinism():
    goal = compose(world_turn(0.5), START)
    a = plan_to_pose(READY, goal, LIMIT_MODEL, PlannerConfig())
    b = plan_to_pose(READY, goal, LIMIT_MODEL, PlannerConfig())
    assert a.outcome == b.outcome
    assert len(a.steps) == len(b.steps)
    assert_allclose(np.array([s.q for s in a.steps]),
                    np.array([s.q for s in b.steps]), atol=0.0)


# the elbow search as it stood with separate best and fallback trackers
# and a state and a liveness dict per direction, kept verbatim so the
# probes below pin which candidate the search picks
def reference_calculate_sew_change(q, model, config):
    """Signed elbow-angle change that relieves the joint limits.

    Walks the self-motion in both directions from the offending
    configuration, never extending a direction past an outer-bound
    crossing, a self-motion singularity or a zero self-motion.  Among
    candidates that put every joint back inside the inner bound, the
    one with the best worst-joint margin wins (deepest recovery, not
    the first escape, so tracking does not immediately re-trigger);
    failing that, the candidate that most improves the worst-joint
    margin (partial retreat); zero when neither direction helps or
    nothing is wrong.
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
            if damped or not direction.any():
                # a self-motion singularity, or no self-motion at all
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


def sew_search_probes():
    """(q, model, config) cases for the elbow search, 100 and more."""
    config = PlannerConfig()
    probes = []
    # each joint pinched against one limit or the other, at three depths
    # into the band between the outer and the inner bound
    for j in range(7):
        for depth in (0.03, 0.1, 0.17):
            probes.append((READY, tightened(j, -0.9, depth), config))
            probes.append((READY, tightened(j, -depth, 0.9), config))
    # a window symmetric about q beside a pinched joint: the two
    # directions can tie
    narrow = PlannerConfig(eps_in=0.1)
    for j in range(7):
        for k, half in (((j + 2) % 7, 0.15), ((j + 3) % 7, 0.13)):
            model = tightened(j, -half, half)
            upper = model.upper.copy()
            upper[k] = READY[k] + 0.05
            probes.append((READY, dataclasses.replace(model, upper=upper),
                           narrow))
    # antagonistic pairs, pinched on the same side: nothing helps
    for j, k in ((0, 2), (2, 4), (4, 6)):
        for depth in (0.1, 0.185):
            lower, upper = MODEL.lower.copy(), MODEL.upper.copy()
            upper[[j, k]] = READY[[j, k]] + depth
            lower[[j, k]] = READY[[j, k]] - 0.5
            probes.append((READY, dataclasses.replace(
                MODEL, lower=lower, upper=upper), config))
    rng = np.random.default_rng(11)
    # comfortable configurations: nothing to relieve
    for _ in range(8):
        q = rng.uniform(MODEL.lower + 0.3, MODEL.upper - 0.3)
        probes.append((q, MODEL, config))
    # moved configurations, one random joint pinched, a coarser search
    coarse = PlannerConfig(sew_search=(0.03, 1.5))
    for _ in range(24):
        q = READY + rng.uniform(-0.3, 0.3, 7)
        j = int(rng.integers(7))
        depth = float(rng.uniform(0.02, 0.19))
        off = (-0.9, depth) if rng.random() < 0.5 else (-depth, 0.9)
        probes.append((q, tightened(j, *off, at=q),
                       config if rng.random() < 0.5 else coarse))
    # both toy arms near their limits
    toy = prismatic_toy()
    arm = toy_with_wrist(toy)
    for q in ([2.85, 0.2, 0.1], [-2.9, 0.5, -0.3], [0.3, 0.9, 0.1]):
        probes.append((np.array(q), toy, PlannerConfig(eps_in=0.3)))
    for q in ([0.3, 0.2, 0.1, 2.9, -0.2, 0.1, 0.3],
              [0.3, 0.2, 0.1, 0.4, -2.85, 0.1, 0.3],
              [2.9, 0.2, 0.1, 0.4, -0.2, 0.1, -2.9]):
        probes.append((np.array(q), arm, PlannerConfig(eps_in=0.3)))
    return probes


def test_elbow_search_matches_reference():
    probes = sew_search_probes()
    assert len(probes) >= 100
    got = [calculate_sew_change(*probe) for probe in probes]
    assert got == [reference_calculate_sew_change(*probe)
                   for probe in probes]
    # the probes reach every branch: a swing either way, and none
    assert min(got) < 0.0 < max(got) and 0.0 in got


def reference_mode2_recovery(q, psi_d, model, config, max_steps=None):
    """mode2_recovery through Pose objects: the held flange from
    forward_kinematics, a checked flange Pose each step, and
    error_twist between them.  The array step must reproduce it bit for
    bit."""
    q_c = np.asarray(q, dtype=float).copy()
    outer = limit_band(model, config.eps_out)
    budget = config.max_steps if max_steps is None else max_steps
    hold = forward_kinematics(model, q_c)
    qs, Rs, ps = [], [], []
    psi_prev = None
    psi_cont = 0.0

    def done(outcome):
        n = len(qs)
        return JointTrajectory(
            np.reshape(qs, (n, len(q_c))), np.reshape(Rs, (n, 3, 3)),
            np.reshape(ps, (n, 3)), [Mode.MODE2] * n, [False] * n, outcome)

    while True:
        R, p, jac, psi_raw, jpsi = arm_state(model, q_c)
        pose = Pose(R, p)
        if psi_prev is not None:
            psi_cont += _wrap(psi_raw - psi_prev)
            qs.append(q_c)
            Rs.append(pose.rotation)
            ps.append(pose.translation)
        psi_prev = psi_raw
        if abs(psi_d - psi_cont) < PSI_TOL:
            return done(Outcome.REACHED)
        if len(qs) >= budget:
            return done(Outcome.STEP_BUDGET_EXHAUSTED)
        pinv, d, flag = self_motion(jac, jpsi)
        if flag:
            return done(Outcome.MOTION_PLAN_FAILED)
        x = pinv @ (config.kappa * error_twist(hold, pose))
        candidate = q_c + _clamp(config.lam * config.delta_t
                                 * (x + d * (psi_d - psi_cont - jpsi @ x)))
        if not within(candidate, outer).all():
            return done(Outcome.MOTION_PLAN_FAILED)
        q_c = candidate


def reference_plan_to_pose(q0, gd, model, config):
    """plan_to_pose through Pose objects: a checked flange Pose from
    each chain pass, then pose_error, error_twist and pseudoinverse on
    it each step, and reference_mode2_recovery for the elbow swings.
    The array step must reproduce it bit for bit."""
    inner = limit_band(model, config.eps_in)
    q_c = np.asarray(q0, dtype=float).copy()
    rows = {name: [] for name in ("q", "rotation", "translation", "mode",
                                  "damped")}
    pending = (q_c, False)
    iterations = 0

    def done(outcome):
        n = len(rows["q"])
        return JointTrajectory(
            np.reshape(rows["q"], (n, len(q_c))),
            np.reshape(rows["rotation"], (n, 3, 3)),
            np.reshape(rows["translation"], (n, 3)), rows["mode"],
            rows["damped"], outcome, segment_starts=[0])

    while True:
        chain = _Chain(model, q_c)
        pose, jac = Pose(*chain.flange()), chain.jacobian
        if pending is not None:
            for name, value in zip(rows, (pending[0], pose.rotation,
                                          pose.translation, Mode.MODE1,
                                          pending[1])):
                rows[name].append(value)
            pending = None
        rot, trans = pose_error(pose, gd)
        if rot < config.goal_tol[0] and trans < config.goal_tol[1]:
            return done(Outcome.REACHED)
        if iterations >= config.max_steps:
            return done(Outcome.STEP_BUDGET_EXHAUSTED)
        xi = error_twist(gd, pose)
        pinv, damped, _ = pseudoinverse(jac)
        candidate = q_c + _clamp(config.kappa * config.delta_t * (pinv @ xi))
        iterations += 1
        if within(candidate, inner).all():
            q_c = candidate
            pending = (q_c, damped)
            continue
        if not config.mode2_enabled:
            return done(Outcome.MOTION_PLAN_FAILED)
        dpsi = reference_calculate_sew_change(candidate, model, config)
        if dpsi == 0.0:
            return done(Outcome.MOTION_PLAN_FAILED)
        fragment = reference_mode2_recovery(
            q_c, dpsi, model, config,
            max_steps=config.max_steps - iterations)
        for name in rows:
            rows[name].extend(getattr(fragment, name))
        iterations += len(fragment)
        if fragment.outcome is Outcome.STEP_BUDGET_EXHAUSTED:
            return done(fragment.outcome)
        if fragment.outcome is not Outcome.REACHED or len(fragment) == 0:
            return done(Outcome.MOTION_PLAN_FAILED)
        q_c = fragment.q[-1]
        if not within(q_c, inner).all():
            return done(Outcome.MOTION_PLAN_FAILED)


def assert_same_trajectory(got, want):
    assert got.outcome is want.outcome
    assert got.segment_starts == want.segment_starts
    assert len(got) == len(want)
    for name in ("q", "rotation", "translation", "mode", "damped"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_array_step_matches_pose_route_bitwise(monkeypatch):
    config = PlannerConfig()
    for model, goal in (
            (MODEL, screw_goal([0.2, -0.4, 0.9], START.translation + 0.1,
                               0.03, 0.7)),
            (MODEL, compose(Pose(np.eye(3), np.array([0.05, -0.04, 0.03])),
                            START)),
            (LIMIT_MODEL, LIMIT_GOAL)):
        assert_same_trajectory(plan_to_pose(READY, goal, model, config),
                               reference_plan_to_pose(READY, goal, model,
                                                      config))
    # every near-limit placement, recovery on and then off, through
    # plan_through_guiding_poses (which calls the module's plan_to_pose)
    for _, spec in near_limit_scenarios():
        for enabled in (True, False):
            run = dataclasses.replace(
                spec, planner_config=dataclasses.replace(
                    spec.planner_config, mode2_enabled=enabled))
            got = run_activity(run, keep_trajectories=True)
            with monkeypatch.context() as m:
                m.setattr(planner, "plan_to_pose", reference_plan_to_pose)
                want = run_activity(run, keep_trajectories=True)
            assert len(got.trajectories) == len(want.trajectories) == 1
            assert_same_trajectory(got.trajectories[0],
                                   want.trajectories[0])
            assert (Mode.MODE2 in [
                s.mode for s in got.trajectories[0].steps]) is enabled


def test_trajectory_step_builds_its_pose_on_demand():
    step = TrajectoryStep(READY, Mode.MODE1, START.rotation,
                          START.translation)
    assert np.array_equal(step.rotation, START.rotation)
    assert np.array_equal(step.translation, START.translation)
    assert not any(a.flags.writeable
                   for a in (step.q, step.rotation, step.translation))


def test_plan_builds_no_pose_per_step(monkeypatch):
    built = []
    post_init = Pose.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    def mode1(angle):
        return plan_to_pose(READY, compose(world_turn(angle), START),
                            MODEL, PlannerConfig())

    def mode2(psi_d):
        return mode2_recovery(READY, psi_d, MODEL, PlannerConfig())

    # two targets of each mode that take different step counts
    for run, targets in ((mode1, (0.02, 0.5)), (mode2, (-0.05, -0.4))):
        counts = []
        for target in targets:
            built.clear()
            monkeypatch.setattr(Pose, "__post_init__", counted)
            traj = run(target)
            monkeypatch.undo()
            assert traj.outcome is Outcome.REACHED
            counts.append((len(built), len(traj.steps)))
        (short_count, short_steps), (long_count, long_steps) = counts
        assert long_steps - short_steps > 100
        assert short_count == long_count


# PANDA_READY to FK(PANDA_READY + s * OFFSET): 771 mode-1 steps at s = 1,
# 699 at s = 0.5
OFFSET = np.array([0.3, -0.2, 0.1, 0.2, -0.1, 0.2, 0.1])


def offset_plan(s):
    goal = forward_kinematics(MODEL, PANDA_READY + s * OFFSET)
    return plan_to_pose(PANDA_READY, goal, MODEL, PlannerConfig())


def test_trajectory_retains_its_rows_and_little_else():
    # what the trajectory holds is what dropping it frees; the free lists
    # of the interpreter, which earlier tests fill, stay out of the count
    tracemalloc.start()
    try:
        traj = offset_plan(1.0)
        steps = len(traj)
        held = tracemalloc.get_traced_memory()[0]
        del traj
        retained = (held - tracemalloc.get_traced_memory()[0]) / steps
    finally:
        tracemalloc.stop()
    assert steps == 771
    # the rows take 161 bytes a step (q 56, rotation 72, translation 24,
    # mode 8, damped 1); a frozen step object per row took 624
    assert 161 <= retained <= 200


@pinned_counts
def test_mode1_step_call_count():
    post_init = TrajectoryStep.__post_init__.__code__
    counts = {}
    for s in (0.5, 1.0):
        calls = [0, 0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1
                calls[1] += frame.f_code is post_init

        sys.setprofile(profile)
        try:
            traj = offset_plan(s)
        finally:
            sys.setprofile(None)
        assert traj.outcome is Outcome.REACHED
        assert np.all(traj.mode == Mode.MODE1)
        assert calls[1] == 0  # no TrajectoryStep is built
        counts[s] = len(traj), calls[0]
    (short, short_calls), (long, long_calls) = counts[0.5], counts[1.0]
    assert (short, long) == (699, 771)
    # Python-level calls per mode-1 step: 33.0 with a TrajectoryStep per
    # step and np.abs(dq).max() in _clamp, 30.0 without
    assert (long_calls - short_calls) / (long - short) <= 30.0


@pinned_counts
def test_mode2_step_call_count():
    counts = {}
    for budget in (20, 60):
        traj, counts[budget] = python_calls(lambda: mode2_recovery(
            PANDA_READY, -0.4, MODEL, PlannerConfig(), max_steps=budget))
        assert traj.outcome is Outcome.STEP_BUDGET_EXHAUSTED
        assert len(traj) == budget and np.all(traj.mode == Mode.MODE2)
    # Python-level calls per mode-2 step: 55.0, through arm_state's
    # 5-tuple and on the chain alike (elbow() takes arm_state's call)
    assert (counts[60] - counts[20]) / (60 - 20) <= 55.0


@pinned_counts
def test_elbow_search_candidate_call_count(monkeypatch):
    q = PANDA_READY.copy()
    q[0] = MODEL.upper[0] - 0.05
    candidates = []

    def counted(*args):
        candidates.append(1)
        return self_motion_direction(*args)

    monkeypatch.setattr(planner, "self_motion_direction", counted)
    counts = {}
    for span in (0.2, 0.4):
        candidates.clear()
        dpsi, calls = python_calls(lambda: calculate_sew_change(
            q, MODEL, PlannerConfig(sew_search=(0.01, span))),
            skip=counted.__code__)
        assert dpsi == -span
        counts[span] = len(candidates), calls
    (short, short_calls), (long, long_calls) = counts[0.2], counts[0.4]
    assert (short, long) == (24, 44)
    # Python-level calls per candidate: 54.0 with an inner-band test per
    # candidate and arm_state under self_motion_direction, 49.0 ranking
    # by margin alone on one chain
    assert (long_calls - short_calls) / (long - short) <= 49.0


def test_steps_view_builds_each_step_from_its_row():
    traj = plan_to_pose(READY, LIMIT_GOAL, LIMIT_MODEL, PlannerConfig())
    view = traj.steps
    assert not hasattr(view, "__dict__") and len(view) == len(traj)
    assert [s.mode for s in view] == list(traj.mode)
    assert [s.damped for s in view] == traj.damped.tolist()
    for i in (0, 7, -1):
        step = view[i]
        assert isinstance(step, TrajectoryStep)
        assert isinstance(step.damped, bool)
        for name in ("q", "rotation", "translation"):
            assert np.array_equal(getattr(step, name),
                                  getattr(traj, name)[i])
    part = view[3:9:2]
    assert len(part) == 3 and not hasattr(part, "__dict__")
    assert [s.q.tolist() for s in part] == traj.q[3:9:2].tolist()
    assert part[-1].damped is bool(traj.damped[7])
    with pytest.raises(IndexError):
        view[len(traj)]
    with pytest.raises(IndexError):
        part[3]
    assert not any(getattr(traj, name).flags.writeable
                   for name in ("q", "rotation", "translation", "mode",
                                "damped"))


def _rows(n=3, dof=7):
    return dict(q=np.zeros((n, dof)), rotation=np.tile(np.eye(3), (n, 1, 1)),
                translation=np.zeros((n, 3)), mode=[Mode.MODE1] * n,
                damped=[False] * n, outcome=Outcome.REACHED)


@pytest.mark.parametrize("field, value, message", [
    ("q", np.zeros((2, 7)), "rows of unequal count: q 2, rotation 3"),
    ("damped", [False] * 4, "rows of unequal count: .*damped 4"),
    ("mode", [Mode.MODE1] * 2, "rows of unequal count: .*mode 2"),
    ("q", np.zeros(3), r"q must be 2-D \(steps, joints\), got shape \(3,\)"),
    ("q", np.zeros((3, 7, 1)), "q must be 2-D"),
    ("q", [["a"] * 7] * 3, "q: could not convert"),
    ("rotation", np.zeros((3, 9)),
     r"rotation must have shape \(3, 3, 3\), got \(3, 9\)"),
    ("rotation", np.zeros((3, 3, 4)), "rotation must have shape"),
    ("translation", np.zeros((3, 2)),
     r"translation must have shape \(3, 3\), got \(3, 2\)"),
    ("translation", np.zeros(3),
     r"translation must have shape \(3, 3\), got \(3,\)"),
    ("rotation", 0.0, "rows of unequal count: .*rotation 0"),
    ("mode", [Mode.MODE1, 1, Mode.MODE2], "every mode entry must be a Mode"),
    ("mode", ["mode1"] * 3, "every mode entry must be a Mode"),
])
def test_trajectory_refuses_malformed_rows(field, value, message):
    JointTrajectory(**_rows())  # the unchanged rows are accepted
    with pytest.raises(InvalidTrajectoryError, match=message):
        JointTrajectory(**{**_rows(), field: value})


def test_trajectory_file_round_trip(tmp_path):
    config = PlannerConfig()
    traj = plan_to_pose(READY, LIMIT_GOAL, LIMIT_MODEL, config)
    f = tmp_path / "traj.jsonl"
    records.save("trajectory", traj, f, robot="panda")
    back = records.load("trajectory", f)
    assert back.outcome is traj.outcome
    assert back.segment_starts == traj.segment_starts
    assert len(back.steps) == len(traj.steps)
    assert_allclose(np.array([s.q for s in back.steps]),
                    np.array([s.q for s in traj.steps]), atol=1e-12)
    assert [s.mode for s in back.steps] == [s.mode for s in traj.steps]
    rot, trans = pose_error(back.final_pose, traj.final_pose)
    assert rot < 1e-12 and trans < 1e-12


def test_trajectory_mode_reads_both_spellings(tmp_path):
    traj = plan_to_pose(READY, LIMIT_GOAL, LIMIT_MODEL, PlannerConfig())
    f = tmp_path / "traj.jsonl"
    records.save("trajectory", traj, f, robot="panda")
    header, *lines = f.read_text().splitlines()
    assert {json.loads(r)["mode"] for r in lines} == {1, 2}
    spelled = [json.dumps({**json.loads(r),
                           "mode": f"mode{json.loads(r)['mode']}"})
               for r in lines]
    f.write_text("\n".join([header, *spelled]) + "\n")
    back = records.load("trajectory", f)
    assert [s.mode for s in back.steps] == [s.mode for s in traj.steps]


def test_trajectory_loader_rejects_malformed_records(tmp_path):
    traj = plan_to_pose(READY, compose(world_turn(0.02), START), MODEL,
                        PlannerConfig())
    f = tmp_path / "traj.jsonl"
    records.save("trajectory", traj, f, robot="panda")
    header, first, second, *rest = f.read_text().splitlines()
    rec = json.loads(second)
    for bad, message in (
            ({**rec, "q": [math.nan] + rec["q"][1:]},
             "line 3: joint values must be finite"),
            ({**rec, "q": rec["q"][:-1] + [math.inf]},
             "line 3: joint values must be finite"),
            ({**rec, "mode": "mode9"},
             "line 3: 'mode9' is not a valid Mode"),
            ({**rec, "mode": 9}, "line 3: 9 is not a valid Mode"),
            ({k: v for k, v in rec.items() if k != "q"},
             "line 3: missing field 'q'"),
            ({k: v for k, v in rec.items() if k != "mode"},
             "line 3: missing field 'mode'"),
            ({**rec, "q": 0.5}, "line 3: joint values must be finite"),
            ({**rec, "q": [rec["q"], rec["q"]]},
             "line 3: joint values must be finite"),
            ({**rec, "mode": True}, "line 3: True is not a valid Mode"),
            ({**rec, "damped": "false"},
             "line 3: damped must be true or false"),
            ({**rec, "damped": 1}, "line 3: damped must be true or false")):
        f.write_text("\n".join([header, first, json.dumps(bad), *rest])
                     + "\n")
        with pytest.raises(InvalidTrajectoryError, match=message):
            records.load("trajectory", f)


def test_trajectory_loader_checks_segment_starts(tmp_path):
    traj = plan_to_pose(READY, compose(world_turn(0.02), START), MODEL,
                        PlannerConfig())
    f = tmp_path / "traj.jsonl"
    records.save("trajectory", traj, f, robot="panda")
    header, *lines = f.read_text().splitlines()
    n = len(lines)

    def with_starts(starts):
        f.write_text("\n".join([json.dumps({**json.loads(header),
                                            "segment_starts": starts}),
                                *lines]) + "\n")

    # a leg already at its goal adds no step: equal starts load
    for good in ([0], [0, 0], [0, 1, 1, n - 1]):
        with_starts(good)
        assert records.load("trajectory", f).segment_starts == good
    # a start past the last step used to load, and the carried-object
    # poses then came out empty; so did starts that run backwards
    for bad in ([0, 99999], [5, 2], [0, 3, 2], [1], [], [0, n]):
        with_starts(bad)
        with pytest.raises(InvalidTrajectoryError,
                           match=re.escape(f"{f}: segment_starts must")):
            records.load("trajectory", f)


def test_trajectory_writer_keeps_the_loader_rule(tmp_path):
    # a mode-2 fragment is one leg and round-trips
    frag = mode2_recovery(READY, -0.3, MODEL, PlannerConfig())
    f = tmp_path / "frag.jsonl"
    records.save("trajectory", frag, f, robot="panda")
    back = records.load("trajectory", f)
    assert back.segment_starts == frag.segment_starts == [0]
    assert np.array_equal(np.array([s.q for s in back.steps]),
                          np.array([s.q for s in frag.steps]))
    # what the loader refuses is never written
    empty = mode2_recovery(READY, 0.0005, MODEL, PlannerConfig())
    assert len(empty) == 0
    for bad in (empty, dataclasses.replace(frag, segment_starts=[]),
                dataclasses.replace(frag, segment_starts=[0, 2, 1])):
        g = tmp_path / "bad.jsonl"
        with pytest.raises(InvalidTrajectoryError,
                           match=re.escape(f"{g}: segment_starts must")):
            records.save("trajectory", bad, g)
        assert not g.exists()


def test_committed_trajectory_file_loads_and_replans():
    # gallery/05_limit_aware_planning.py wrote it; modes are stored as 1/2
    path = (Path(__file__).parent.parent / "gallery" / "out"
            / "comfortable_goal.jsonl")
    back = records.load("trajectory", path)
    q_goal = READY + np.array([0.3, -0.2, 0.25, -0.3, 0.2, 0.25, -0.3])
    traj = plan_to_pose(READY, forward_kinematics(MODEL, q_goal), MODEL,
                        PlannerConfig())
    assert back.outcome is traj.outcome is Outcome.REACHED
    assert back.segment_starts == [0]
    assert [s.mode for s in back.steps] == [Mode.MODE1] * len(traj.steps)
    assert_allclose(np.array([s.q for s in back.steps]),
                    np.array([s.q for s in traj.steps]), atol=1e-9)
