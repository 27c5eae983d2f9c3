"""Arm kinematics against the frame-by-frame DH oracle and finite
differences."""

import dataclasses
import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import panda_oracle
from screwplan import records
from screwplan.kinematics import (
    BadEpsError,
    InvalidRobotError,
    LimitZone,
    RobotModel,
    REFERENCE_AXIS_TOL,
    arm_state,
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
    _Chain,
)
from screwplan import planner
from screwplan.planner import (Outcome, PlannerConfig, calculate_sew_change,
                               mode2_recovery)
from screwplan.screws import Pose, compose, hat, pose_error
from util import prismatic_toy, rand_pose, toy_with_wrist

READY = np.array([0.0, -np.pi / 4, 0.0, -3 * np.pi / 4, 0.0, np.pi / 2,
                  np.pi / 4])


def rand_q(rng, model, shrink=0.15):
    span = model.upper - model.lower
    return model.lower + span * rng.uniform(shrink, 1.0 - shrink,
                                            size=model.n_joints)


def oracle_pose(q):
    t = panda_oracle.dh_matrix(q)
    return Pose(t[:3, :3], t[:3, 3])


def test_packaged_model_is_frozen():
    model = panda_model()
    assert model.name == "panda"
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [-0.333, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.649, 0.0, -0.0825, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [1.033, 0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.088, 0.0, 0.0, 0.0, -1.0],
    ])
    assert_allclose(model.twists, expected, atol=1e-12)
    assert_allclose(model.home_pose.translation, [0.088, 0.0, 0.926],
                    atol=1e-12)
    assert_allclose(model.home_pose.rotation, np.diag([1.0, -1.0, -1.0]),
                    atol=1e-12)
    assert model.sew_indices == (1, 3, 5)
    assert_allclose(model.lower[3], -3.0718)
    assert_allclose(model.upper[3], -0.0698)


def test_fk_matches_dh_chain_everywhere():
    model = panda_model()
    rng = np.random.default_rng(40)
    rot, trans = pose_error(forward_kinematics(model, np.zeros(7)),
                            oracle_pose(np.zeros(7)))
    assert rot < 1e-12 and trans < 1e-12
    for _ in range(100):
        q = rand_q(rng, model)
        rot, trans = pose_error(forward_kinematics(model, q),
                                oracle_pose(q))
        assert rot < 1e-9 and trans < 1e-9


def test_single_joint_motions():
    model = panda_model()
    home = forward_kinematics(model, np.zeros(7))
    # base yaw spins the whole arm about world z
    q = np.zeros(7)
    q[0] = 0.7
    c, s = math.cos(0.7), math.sin(0.7)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert_allclose(forward_kinematics(model, q).translation,
                    rz @ home.translation, atol=1e-12)
    # shoulder pitch swings the flange about the +y axis through the
    # shoulder point
    q = np.zeros(7)
    q[1] = 0.5
    c, s = math.cos(0.5), math.sin(0.5)
    ry = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    shoulder = np.array([0.0, 0.0, 0.333])
    assert_allclose(forward_kinematics(model, q).translation,
                    ry @ (home.translation - shoulder) + shoulder,
                    atol=1e-12)
    # the last joint axis passes through the flange origin
    q = np.zeros(7)
    q[6] = 1.1
    moved = forward_kinematics(model, q)
    assert_allclose(moved.translation, home.translation, atol=1e-12)
    rot, _ = pose_error(moved, home)
    assert abs(rot - 1.1) < 1e-12


def test_moving_base_left_multiplies():
    rng = np.random.default_rng(41)
    base = rand_pose(rng)
    fixed = panda_model()
    moved = dataclasses.replace(fixed, base_pose=base)
    for _ in range(10):
        q = rand_q(rng, fixed)
        rot, trans = pose_error(forward_kinematics(moved, q),
                                compose(base, forward_kinematics(fixed, q)))
        assert rot < 1e-12 and trans < 1e-12


def test_jacobian_matches_finite_differences():
    model = dataclasses.replace(
        panda_model(), base_pose=Pose(np.eye(3), np.array([0.2, -0.1, 0.05])))
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(20):
        q = rand_q(rng, model)
        jac = arm_state(model, q)[2]
        for i in range(7):
            dq = np.zeros(7)
            dq[i] = h
            a = forward_kinematics(model, q - dq)
            b = forward_kinematics(model, q + dq)
            dr = (b.rotation - a.rotation) / (2.0 * h)
            wh = dr @ b.rotation.T
            omega = np.array([wh[2, 1] - wh[1, 2], wh[0, 2] - wh[2, 0],
                              wh[1, 0] - wh[0, 1]]) / 2.0
            pdot = (b.translation - a.translation) / (2.0 * h)
            v = pdot - np.cross(omega, b.translation)
            assert_allclose(jac[:3, i], v, atol=1e-5)
            assert_allclose(jac[3:, i], omega, atol=1e-5)


def test_pseudoinverse_identities():
    jac = np.hstack([np.eye(6), np.zeros((6, 1))])
    pinv, damped, _ = pseudoinverse(jac)
    assert not damped
    assert_allclose(pinv, np.vstack([np.eye(6), np.zeros((1, 6))]),
                    atol=1e-12)
    model = panda_model()
    jac = arm_state(model, READY)[2]
    pinv, damped, _ = pseudoinverse(jac)
    assert not damped
    assert_allclose(jac @ pinv, np.eye(6), atol=1e-9)
    # rank-collapsed: damped answer stays finite and flagged
    singular = np.vstack([np.ones((1, 7)), np.zeros((5, 7))])
    pinv, damped, _ = pseudoinverse(singular)
    assert damped
    assert np.all(np.isfinite(pinv))
    assert np.linalg.norm(pinv) < 1e4
    # the packaged arm stretched straight up: sigma_min ~ 3e-17, so
    # J J^T alone is numerically singular and only the damping saves it
    jac = arm_state(model, np.zeros(7))[2]
    assert np.linalg.svd(jac, compute_uv=False)[-1] < 1e-12
    pinv, damped, _ = pseudoinverse(jac)
    assert damped
    assert np.all(np.isfinite(pinv))


def reference_chain(model, q):
    """The chain one joint at a time in numpy, each exponential built on
    its own: the float chain must match it within 1e-12.  Returns
    (partial rotations, partial translations, flange pose, Jacobian)."""
    eye = np.eye(3)
    rots = [model.base_pose.rotation]
    trans = [model.base_pose.translation]
    for (v, w), qi in zip(zip(model.twists[:, :3], model.twists[:, 3:]), q):
        if np.sum(w ** 2) < 1e-24:
            r, p = eye, v * qi
        else:
            wh = hat(w)
            wh2 = wh @ wh
            s = math.sin(qi)
            half = math.sin(qi / 2.0)
            one_c = 2.0 * (half * half)
            r = eye + s * wh + one_c * wh2
            p = (qi * eye + one_c * wh + (qi - s) * wh2) @ v
        rots.append(rots[-1] @ r)
        trans.append(rots[-2] @ p + trans[-1])
    jac = np.empty((6, len(q)))
    for i, (v, w) in enumerate(zip(model.twists[:, :3], model.twists[:, 3:])):
        wi = rots[i] @ w
        t = trans[i]
        jac[:3, i] = rots[i] @ v + np.array([t[1] * wi[2] - t[2] * wi[1],
                                             t[2] * wi[0] - t[0] * wi[2],
                                             t[0] * wi[1] - t[1] * wi[0]])
        jac[3:, i] = wi
    home = model.home_pose
    pose = Pose(rots[-1] @ home.rotation,
                rots[-1] @ home.translation + trans[-1])
    return np.array(rots), np.array(trans), pose, jac


def _assert_chain_matches(model, q):
    rots, trans, pose, jac = reference_chain(model, q)
    chain = _Chain(model, q)
    got_R, got_p = chain.flange()
    assert_allclose(got_R, pose.rotation, rtol=0.0, atol=1e-12)
    assert_allclose(got_p, pose.translation, rtol=0.0, atol=1e-12)
    assert chain.jacobian.shape == jac.shape
    assert_allclose(chain.jacobian, jac, rtol=0.0, atol=1e-12)
    # each marker joint's axis point nearest the origin, w x v, carried
    # by the frame ahead of it
    points = [rots[i] @ np.cross(model.twists[i, 3:], model.twists[i, :3])
              + trans[i] for i in model.sew_indices]
    assert_allclose(chain.sew, points, rtol=0.0, atol=1e-12)


def test_float_chain_matches_per_joint_chain():
    rng = np.random.default_rng(71)
    model = dataclasses.replace(panda_model(), base_pose=rand_pose(rng))
    for _ in range(200):
        _assert_chain_matches(model, rand_q(rng, model, shrink=0.0))
    _assert_chain_matches(model, np.zeros(7))
    toy = prismatic_toy()
    for arm in (toy, toy_with_wrist(toy)):
        for _ in range(50):
            _assert_chain_matches(arm, rng.uniform(arm.lower, arm.upper))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_joint_values_are_refused(bad):
    model = panda_model()
    goal = forward_kinematics(model, READY)
    q = READY.copy()
    q[3] = bad
    for call in (lambda: forward_kinematics(model, q),
                 lambda: arm_state(model, q),
                 lambda: planner.plan_to_pose(q, goal, model,
                                              PlannerConfig())):
        with pytest.raises(ValueError, match="joint values must be finite"):
            call()


def test_sew_points_frozen_at_zero():
    model = panda_model()
    s, e, w = np.array(_Chain(model, np.zeros(7)).sew)
    assert_allclose(s, [0.0, 0.0, 0.333], atol=1e-12)
    assert_allclose(e, [0.0825, 0.0, 0.649], atol=1e-12)
    assert_allclose(w, [0.0, 0.0, 1.033], atol=1e-12)
    # points ride the links: spinning the base yaw moves elbow x to y
    q = np.zeros(7)
    q[0] = np.pi / 2.0
    _, e2, _ = np.array(_Chain(model, q).sew)
    assert_allclose(e2, [0.0, 0.0825, 0.649], atol=1e-12)


def test_sew_angle_zero_in_reference_plane():
    # at the ready pose the whole arm lies in the xz-plane, which
    # contains the base vertical, so the elbow angle vanishes
    model = panda_model()
    assert abs(sew_angle(model, READY)) < 1e-12


def reference_sew_angle(model, q):
    """The elbow angle straight from the three points, without the
    gradient, in numpy: sew_angle's scalar route must match it within
    1e-12."""
    s, e, w = np.array(_Chain(model, q).sew)
    u = w - s
    u = u / np.linalg.norm(u)
    zhat = model.base_pose.rotation[:, 2]
    zxu = np.array([zhat[1] * u[2] - zhat[2] * u[1],
                    zhat[2] * u[0] - zhat[0] * u[2],
                    zhat[0] * u[1] - zhat[1] * u[0]])
    ref = (model.base_pose.rotation[:, 0]
           if np.linalg.norm(zxu) < REFERENCE_AXIS_TOL else zhat)
    r = ref - np.dot(ref, u) * u
    ew = e - s
    f = ew - np.dot(ew, u) * u
    rxf = np.array([r[1] * f[2] - r[2] * f[1], r[2] * f[0] - r[0] * f[2],
                    r[0] * f[1] - r[1] * f[0]])
    return math.atan2(np.dot(u, rxf), np.dot(r, f))


def test_sew_angle_matches_point_formula():
    rng = np.random.default_rng(72)
    model = dataclasses.replace(panda_model(), base_pose=rand_pose(rng))
    for _ in range(500):
        q = rand_q(rng, model, shrink=0.0)
        assert abs(sew_angle(model, q) - reference_sew_angle(model, q)) \
            <= 1e-12
        assert arm_state(model, q)[3] == sew_angle(model, q)
    # shoulder-wrist line along the base vertical: the x reference
    assert abs(sew_angle(model, np.zeros(7))
               - reference_sew_angle(model, np.zeros(7))) <= 1e-12


def test_sew_jacobian_matches_finite_differences():
    rng = np.random.default_rng(43)
    fixed = panda_model()
    h = 1e-6
    for model in (fixed, dataclasses.replace(fixed, base_pose=rand_pose(rng)),
                  dataclasses.replace(fixed, base_pose=rand_pose(rng))):
        checked = 0
        for _ in range(40):
            q = rand_q(rng, model)
            s, e, w = np.array(_Chain(model, q).sew)
            u = (w - s) / np.linalg.norm(w - s)
            f = (e - s) - np.dot(e - s, u) * u
            # skip near-degenerate geometries where psi itself is ill posed
            if np.linalg.norm(f) < 0.05 or np.linalg.norm(w - s) < 0.1:
                continue
            psi, jpsi = arm_state(model, q)[3:]
            for i in range(7):
                dq = np.zeros(7)
                dq[i] = h
                lo = sew_angle(model, q - dq)
                hi = sew_angle(model, q + dq)
                diff = math.atan2(math.sin(hi - lo), math.cos(hi - lo))
                fd = diff / (2.0 * h)
                assert abs(jpsi[i] - fd) < 1e-5 * (1.0 + abs(fd))
            checked += 1
        assert checked >= 25


def reference_sew_gradient(model, q):
    """dpsi/dq by the chain rule: the 3 x n velocity Jacobians of the
    shoulder, elbow and wrist points carried through u, r, f and then
    atan2(y, x), step by step.  arm_state's closed form must match it."""
    chain = _Chain(model, q)
    jac = chain.jacobian
    s, e, w = np.array(chain.sew)

    def point_jacobian(p, upto):
        # v_j + w_j x p for the joints ahead of the marker
        jp = np.zeros((3, len(q)))
        jp[:, :upto] = jac[:3, :upto] - hat(p) @ jac[3:, :upto]
        return jp

    js, je, jw = (point_jacobian(p, i)
                  for p, i in zip((s, e, w), model.sew_indices))
    a = w - s
    na = np.linalg.norm(a)
    if na == 0.0:
        return np.zeros(len(q))
    u = a / na
    da = jw - js
    du = (da - np.outer(u, u @ da)) / na
    zhat = model.base_pose.rotation[:, 2]
    ref = (model.base_pose.rotation[:, 0]
           if np.linalg.norm(np.cross(zhat, u)) < REFERENCE_AXIS_TOL
           else zhat)
    r = ref - np.dot(ref, u) * u
    dr = -np.outer(u, ref @ du) - np.dot(ref, u) * du
    ew = e - s
    f = ew - np.dot(ew, u) * u
    dew = je - js
    df = dew - np.outer(u, ew @ du + u @ dew) - np.dot(ew, u) * du
    rxf = np.cross(r, f)
    y = np.dot(u, rxf)
    x = np.dot(r, f)
    dy = rxf @ du + u @ (-hat(f) @ dr + hat(r) @ df)
    dx = f @ dr + r @ df
    rho2 = x * x + y * y
    return (x * dy - y * dx) / rho2 if rho2 != 0.0 else np.zeros(len(q))


def _assert_gradient_matches_chain_rule(model, q, slack=0.0):
    jpsi = arm_state(model, q)[4]
    want = reference_sew_gradient(model, q)
    assert np.abs(jpsi - want).max() <= (
        1e-10 * (1.0 + np.abs(jpsi).max()) + slack)


def _near_cone_slack(model, q):
    """Extra absolute error allowed between two float routes to dpsi
    near the reference cone.  The across-reference part of the unit
    shoulder-wrist direction u carries an absolute rounding of about
    eps, so m = ref x u (|m| the sine between them) is known to a
    relative eps/|m|; the reference term of the gradient is of size
    1/|m| per unit of point speed, so each route is off by about
    eps/|m|^2.  Four times that covers both routes with margin (the
    largest seen, over 41 seeds, was 0.6 eps/|m|^2)."""
    s, _, w = np.array(_Chain(model, q).sew)
    u = (w - s) / np.linalg.norm(w - s)
    rot = model.base_pose.rotation
    sine = np.linalg.norm(np.cross(rot[:, 2], u))
    if sine < REFERENCE_AXIS_TOL:
        sine = np.linalg.norm(np.cross(rot[:, 0], u))
    return 4.0 * np.finfo(float).eps / sine ** 2


def test_sew_gradient_matches_chain_rule():
    rng = np.random.default_rng(74)
    fixed = panda_model()
    moved = [dataclasses.replace(fixed, base_pose=rand_pose(rng))
             for _ in range(5)]
    for model in [fixed] + moved:
        for q in [READY] + [rand_q(rng, model, shrink=0.0)
                            for _ in range(100)]:
            _assert_gradient_matches_chain_rule(model, q)
        # shoulder-wrist line near the base vertical: inside the
        # reference cone (x reference) and just outside it, where the
        # z reference has a tiny in-plane part and psi a steep gradient
        # that rounding in the line's direction perturbs
        for tilt in np.geomspace(1e-9, 1e-5, 9):
            for sign in (1.0, -1.0):
                q = rng.uniform(-2.0, 2.0, size=7)
                q[1], q[3] = sign * tilt, 0.0
                _assert_gradient_matches_chain_rule(
                    model, q, _near_cone_slack(model, q))
    toy = prismatic_toy()
    for arm in (toy, toy_with_wrist(toy)):
        for _ in range(50):
            _assert_gradient_matches_chain_rule(
                arm, rng.uniform(arm.lower, arm.upper))


def stacked_self_motion(jac, jpsi):
    """The augmented-Jacobian route that self_motion replaces: the
    pseudoinverse of J with jpsi stacked under it.  Its last column is
    the self-motion direction, and it maps a stacked correction
    [twist; elbow-angle change] to the mode-2 step."""
    return pseudoinverse(np.vstack([jac, jpsi]))


def test_self_motion_matches_stacked_pseudoinverse():
    rng = np.random.default_rng(73)
    for _ in range(5):
        model = dataclasses.replace(panda_model(), base_pose=rand_pose(rng))
        for _ in range(40):
            q = rand_q(rng, model)
            _, _, jac, _, jpsi = arm_state(model, q)
            pinv_a, damped, _ = stacked_self_motion(jac, jpsi)
            pinv, d, flag = self_motion(jac, jpsi)
            assert flag == () and not damped
            assert np.abs(d - pinv_a[:, -1]).max() <= 1e-12 * np.abs(d).max()
            assert np.array_equal(self_motion_direction(model, q)[0], d)
            # the mode-2 step, without the 7 x 7 matrix
            twist, dpsi = rng.normal(size=6), rng.normal()
            x = pinv @ twist
            step = x + d * (dpsi - jpsi @ x)
            want = pinv_a @ np.append(twist, dpsi)
            assert np.abs(step - want).max() <= 1e-12 * np.abs(want).max()


def test_self_motion_flags_each_singularity_test():
    e = np.eye(7)
    jac = np.hstack([np.eye(6), np.zeros((6, 1))])
    pinv, d, flag = self_motion(jac, e[6])
    assert flag == ()
    assert np.array_equal(np.abs(d), e[6])
    assert_allclose(pinv, e[:, :6], atol=1e-15)
    # the null vector is e7: jpsi = e1 leaves the elbow angle still
    pinv, d, flag = self_motion(jac, e[0])
    assert flag == ("elbow still",)
    assert not d.any() and not pinv.any()
    # a zero row leaves e1 and e7 both null; jpsi moves along either
    jac[0] = 0.0
    pinv, d, flag = self_motion(jac, e[0] + e[6])
    assert flag == ("arm singular",)
    assert not d.any() and not pinv.any()


def test_flagged_self_motion_stops_every_user(monkeypatch):
    # the stretched arm is singular; the collinear toy's elbow angle
    # has no gradient, so it does not move along the self-motion.  Both
    # configurations leave the inner band, so the elbow search walks
    panda = panda_model()
    arm = toy_with_wrist(prismatic_toy())
    for model, q, fired in (
            (panda, np.zeros(7), "arm singular"),
            (arm, np.array([0.3, 0.2, 0.1, 2.9, -0.2, 0.1, 0.3]),
             "elbow still")):
        direction, flag = self_motion_direction(model, q)
        assert fired in flag and not direction.any()
        traj = mode2_recovery(q, 0.5, model, PlannerConfig())
        assert traj.outcome is Outcome.MOTION_PLAN_FAILED and not traj.steps
        # each walk of the elbow search ends on its first candidate
        calls = []
        with monkeypatch.context() as m:
            m.setattr(planner, "self_motion_direction",
                      lambda *args: calls.append(args)
                      or self_motion_direction(*args))
            assert calculate_sew_change(
                q, model, PlannerConfig(eps_in=0.3)) == 0.0
        assert len(calls) == 2


def test_rollout_refuses_a_flagged_self_motion():
    with pytest.raises(ValueError, match="arm singular"):
        self_motion_rollout(panda_model(), np.zeros(7), 0.1)


@pytest.mark.parametrize("delta_psi, step, field", [
    (math.nan, 0.01, "delta_psi"), (math.inf, 0.01, "delta_psi"),
    (-math.inf, 0.01, "delta_psi"), (0.1, 0.0, "step"),
    (0.1, -0.01, "step"), (0.1, math.nan, "step"), (0.1, math.inf, "step")])
def test_rollout_refuses_bad_arguments(delta_psi, step, field):
    with pytest.raises(ValueError, match=field):
        self_motion_rollout(panda_model(), READY, delta_psi, step)


def test_self_motion_holds_pose_and_tracks_psi():
    model = panda_model()
    start = forward_kinematics(model, READY)
    psi0 = sew_angle(model, READY)
    for delta in (0.5, -0.5):
        psis, qs = self_motion_rollout(model, READY, delta, step=0.001)
        assert abs(psis[-1] - delta) < 1e-12
        rot, trans = pose_error(forward_kinematics(model, qs[-1]), start)
        budget = 1e-6 * abs(delta)
        assert rot < budget and trans < budget
        end = sew_angle(model, qs[-1])
        diff = math.atan2(math.sin(end - psi0 - delta),
                          math.cos(end - psi0 - delta))
        assert abs(diff) < 1e-6


def test_self_motion_rides_the_roll_joints():
    # at the ready pose the elbow swing is carried by the four roll
    # joints; the pitch joints only compensate at second order (the
    # wrist point sits 0.088 m off the last axis, so the shoulder to
    # wrist distance breathes slightly as the elbow orbits)
    model = panda_model()
    d, flag = self_motion_direction(model, READY)
    assert not flag
    assert_allclose(d[[1, 3, 5]], 0.0, atol=1e-9)
    assert min(abs(d[[0, 2, 4, 6]])) > 0.3
    _, qs = self_motion_rollout(model, READY, 0.8, step=0.002)
    excursion = np.max(np.abs(qs - READY[None, :]), axis=0)
    assert excursion[3] < 0.05
    assert excursion[0] > 0.5


def test_limit_status_zones():
    model = panda_model()
    q = READY.copy()
    zones = limit_status(model, q, 0.2, 0.01)
    assert all(z is LimitZone.WITHIN_INNER for z in zones)
    q[0] = model.upper[0] - 0.1  # inside outer, outside inner
    q[1] = model.upper[1] - 0.005  # outside outer
    zones = limit_status(model, q, 0.2, 0.01)
    assert zones[0] is LimitZone.BETWEEN_BOUNDS
    assert zones[1] is LimitZone.OUTSIDE_OUTER
    assert zones[2] is LimitZone.WITHIN_INNER
    assert limit_margin(model, q) == pytest.approx(0.005)


def reference_limit_zones(model, q, eps_inner, eps_outer):
    """Joint by joint against the shrunk intervals: the masks and
    limit_status must agree with it."""
    zones = []
    for qi, lo, hi in zip(q, model.lower, model.upper):
        if lo + eps_inner <= qi <= hi - eps_inner:
            zones.append(LimitZone.WITHIN_INNER)
        elif lo + eps_outer <= qi <= hi - eps_outer:
            zones.append(LimitZone.BETWEEN_BOUNDS)
        else:
            zones.append(LimitZone.OUTSIDE_OUTER)
    return zones


def _masks_and_zones(model, q, eps_in, eps_out):
    inner = within(q, limit_band(model, eps_in))
    outer = within(q, limit_band(model, eps_out))
    zones = reference_limit_zones(model, q, eps_in, eps_out)
    assert limit_status(model, q, eps_in, eps_out) == zones
    return inner, outer, zones


@st.composite
def _limit_probe(draw, model=panda_model()):
    """An eps pair and a q whose joints sit on the band edges, next to
    them, anywhere around the limits, or at NaN."""
    eps_out = draw(st.floats(1e-3, 0.1))
    eps_in = draw(st.floats(0.11, 1.0))
    q = []
    for lo, hi in zip(model.lower, model.upper):
        edge = draw(st.sampled_from([lo + eps_in, hi - eps_in,
                                     lo + eps_out, hi - eps_out]))
        q.append(draw(st.one_of(
            st.just(edge),
            st.sampled_from([np.nextafter(edge, -np.inf),
                             np.nextafter(edge, np.inf)]),
            st.floats(lo - 0.5, hi + 0.5),
            st.just(math.nan))))
    return eps_in, eps_out, np.array(q)


@settings(max_examples=300, deadline=None)
@given(_limit_probe())
def test_limit_masks_agree_with_limit_status(probe):
    eps_in, eps_out, q = probe
    inner, outer, zones = _masks_and_zones(panda_model(), q, eps_in,
                                           eps_out)
    assert list(inner) == [z is LimitZone.WITHIN_INNER for z in zones]
    assert list(outer) == [z is not LimitZone.OUTSIDE_OUTER for z in zones]


def test_limit_masks_on_band_edges_and_nan():
    model = panda_model()
    lo, hi = model.lower, model.upper
    for q, zone in ((lo + 0.2, LimitZone.WITHIN_INNER),
                    (hi - 0.2, LimitZone.WITHIN_INNER),
                    (lo + 0.01, LimitZone.BETWEEN_BOUNDS),
                    (hi - 0.01, LimitZone.BETWEEN_BOUNDS),
                    (np.full(7, math.nan), LimitZone.OUTSIDE_OUTER)):
        inner, outer, zones = _masks_and_zones(model, q, 0.2, 0.01)
        assert zones == [zone] * 7
        assert inner.all() == (zone is LimitZone.WITHIN_INNER)
        assert outer.all() == (zone is not LimitZone.OUTSIDE_OUTER)


@st.composite
def _margin_probe(draw, model=panda_model()):
    """An eps in check_eps' range and a q inside its band, with one
    joint left there, moved anywhere around its limits, or moved off one
    of its band edges by 1e-13 to 1e-9 either way."""
    span = float(np.min(model.upper - model.lower))
    eps = draw(st.floats(0.0, 0.5 * span, exclude_min=True,
                         exclude_max=True))
    q = [draw(st.floats(lo + eps, hi - eps))
         for lo, hi in zip(model.lower, model.upper)]
    j = draw(st.integers(0, len(q) - 1))
    lo, hi = model.lower[j], model.upper[j]
    move = draw(st.sampled_from(["none", "around", "edge"]))
    if move == "around":
        q[j] = draw(st.floats(lo - 0.5, hi + 0.5))
    elif move == "edge":
        q[j] = (draw(st.sampled_from([lo + eps, hi - eps]))
                + draw(st.sampled_from([-1.0, 1.0]))
                * 10.0 ** draw(st.floats(-13.0, -9.0)))
    return eps, np.array(q)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_margin_probe())
def test_inner_band_is_a_margin_of_eps_or_more(probe):
    # the premise of calculate_sew_change ranking candidates by margin
    # alone: q is inside the band shrunk by eps exactly when its
    # worst-joint margin is eps or more, up to rounding at the edge
    eps, q = probe
    model = panda_model()
    margin = limit_margin(model, q)
    if abs(margin - eps) > 1e-12:
        assert within(q, limit_band(model, eps)).all() == (margin >= eps)


def test_fused_pass_matches_oracle_under_moved_base():
    rng = np.random.default_rng(44)
    base = rand_pose(rng)
    model = dataclasses.replace(panda_model(), base_pose=base)
    h = 1e-6

    def oracle(q):
        return compose(base, oracle_pose(q))

    for _ in range(10):
        q = rand_q(rng, model)
        R, p, jac, psi, jpsi = arm_state(model, q)
        pose = forward_kinematics(model, q)
        assert np.array_equal(R, pose.rotation)
        assert np.array_equal(p, pose.translation)
        assert psi == sew_angle(model, q)
        rot, trans = pose_error(pose, oracle(q))
        assert rot < 1e-9 and trans < 1e-9
        for i in range(7):
            dq = np.zeros(7)
            dq[i] = h
            a, b = oracle(q - dq), oracle(q + dq)
            wh = (b.rotation - a.rotation) / (2.0 * h) @ b.rotation.T
            omega = np.array([wh[2, 1] - wh[1, 2], wh[0, 2] - wh[2, 0],
                              wh[1, 0] - wh[0, 1]]) / 2.0
            v = ((b.translation - a.translation) / (2.0 * h)
                 - np.cross(omega, b.translation))
            assert_allclose(jac[:3, i], v, atol=1e-5)
            assert_allclose(jac[3:, i], omega, atol=1e-5)


def test_limit_status_rejects_bad_eps():
    model = panda_model()
    with pytest.raises(BadEpsError):
        limit_status(model, READY, 0.01, 0.2)  # inner below outer
    with pytest.raises(BadEpsError):
        limit_status(model, READY, 0.2, 0.0)  # outer must be positive
    with pytest.raises(BadEpsError):
        # inner eats the whole narrowest interval
        limit_status(model, READY, 1.6, 0.01)


def test_prismatic_joint_supported():
    model = prismatic_toy()
    pose = forward_kinematics(model, np.array([np.pi / 2.0, 0.3, 0.2]))
    # yaw by 90 degrees, then rise 0.3 and slide 0.2 along the rotated x
    assert_allclose(pose.translation, [0.0, 0.2, 0.3], atol=1e-12)
    jac = _Chain(model, np.array([np.pi / 2.0, 0.3, 0.2])).jacobian
    assert_allclose(jac[:, 1], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(jac[:, 2], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_collinear_shoulder_elbow_wrist_has_no_elbow_gradient(monkeypatch):
    # on the toy the elbow point sits on the shoulder, and at q[1] = 0
    # the wrist does too: no plane through the three points, so psi has
    # no gradient
    toy = prismatic_toy()
    for q in ([0.3, 0.2, 0.1], [0.3, 0.0, 0.1]):
        q = np.array(q)
        *_, psi, jpsi = arm_state(toy, q)
        assert psi == 0.0 and sew_angle(toy, q) == 0.0
        assert np.array_equal(jpsi, np.zeros(3))
        # three joints have no null space, so no self-motion: the
        # elbow test fires and mode 2 fails at once rather than hold q
        # for its whole budget
        direction, flag = self_motion_direction(toy, q)
        assert flag == ("elbow still",) and not direction.any()
        traj = mode2_recovery(q, 0.5, toy, PlannerConfig())
        assert traj.outcome is Outcome.MOTION_PLAN_FAILED and not traj.steps
    # with a four-joint wrist the zero gradient is orthogonal to the
    # null space: the elbow test fires and mode 2 fails at once
    arm = toy_with_wrist(toy)
    q = np.array([0.3, 0.2, 0.1, 0.4, -0.2, 0.1, 0.3])
    assert not arm_state(arm, q)[4].any()
    direction, flag = self_motion_direction(arm, q)
    assert flag == ("elbow still",) and not direction.any()
    traj = mode2_recovery(q, 0.5, arm, PlannerConfig())
    assert traj.outcome is Outcome.MOTION_PLAN_FAILED and not traj.steps
    # nor does the elbow search walk the toy in place: each direction
    # ends on its first candidate
    calls = []
    monkeypatch.setattr(planner, "self_motion_direction",
                        lambda *args: calls.append(args)
                        or self_motion_direction(*args))
    q = np.array([2.8, 0.2, 0.1])
    assert calculate_sew_change(q, toy, PlannerConfig(eps_in=0.3)) == 0.0
    assert len(calls) <= 2


def test_model_validation_and_file_errors(tmp_path):
    with pytest.raises(InvalidRobotError):
        RobotModel(name="bad", twists=np.ones((2, 6)),
                   home_pose=Pose.identity(), lower=np.array([-1.0, -1.0]),
                   upper=np.array([1.0, 1.0]), sew_indices=(0, 1, 1))
    with pytest.raises(InvalidRobotError):
        RobotModel(name="bad",
                   twists=np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 2.0]]),
                   home_pose=Pose.identity(), lower=np.array([-1.0]),
                   upper=np.array([1.0]), sew_indices=(0,))
    good = panda_model()
    for field, value in (("twists", np.where(np.eye(7, 6) > 0, np.nan,
                                             good.twists)),
                         ("lower", np.where(np.arange(7) == 2, np.nan,
                                            good.lower)),
                         ("upper", np.where(np.arange(7) == 4, np.inf,
                                            good.upper)),
                         # a Python caller gets the reader rule too
                         ("twists", [[str(x) for x in row]
                                     for row in good.twists]),
                         ("twists", good.twists[:, :5]),
                         ("twists", 7.0),
                         ("lower", [str(x) for x in good.lower]),
                         ("upper", [True] * 7),
                         ("upper", good.upper[:6])):
        with pytest.raises(InvalidRobotError):
            dataclasses.replace(good, **{field: value})
    f = tmp_path / "robot.json"
    f.write_text("{not json")
    with pytest.raises(InvalidRobotError):
        records.load("robot", f)
    doc = panda_oracle.model_document()
    doc["units"]["angle"] = "deg"
    f.write_text(json.dumps(doc))
    with pytest.raises(InvalidRobotError):
        records.load("robot", f)
    doc = panda_oracle.model_document()
    doc["joint_limits"]["lower"][2] = 5.0
    f.write_text(json.dumps(doc))
    with pytest.raises(InvalidRobotError):
        records.load("robot", f)


def test_robot_model_round_trip(tmp_path):
    model = panda_model()
    path = tmp_path / "arm.json"
    records.save("robot", model, path)
    back = records.load("robot", path)
    assert back.name == model.name
    assert_allclose(back.twists, model.twists, atol=1e-15)
    assert_allclose(back.lower, model.lower, atol=1e-15)
    assert_allclose(back.upper, model.upper, atol=1e-15)
    assert back.sew_indices == model.sew_indices
    rot, trans = pose_error(back.home_pose, model.home_pose)
    assert rot < 1e-14 and trans < 1e-14


def test_shipped_arm_file_matches_documented_checksum():
    # FORMATS.md pins the datasheet-derived constants; an accidental edit
    # to the shipped file must fail loudly, not shift every plan
    data = (resources.files("screwplan.data")
            .joinpath("panda_arm.json").read_bytes())
    digest = hashlib.sha256(data).hexdigest()
    formats = Path(__file__).parent.parent / "FORMATS.md"
    assert digest in formats.read_text()
