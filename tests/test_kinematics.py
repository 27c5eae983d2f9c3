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
    load_robot_model,
    panda_model,
    pseudoinverse,
    save_robot_model,
    self_motion_direction,
    self_motion_rollout,
    sew_angle,
    within,
    _Chain,
)
from screwplan.screws import Pose, compose, hat, pose_error
from util import rand_pose

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
    moved = panda_model(base_pose=base)
    for _ in range(10):
        q = rand_q(rng, fixed)
        rot, trans = pose_error(forward_kinematics(moved, q),
                                compose(base, forward_kinematics(fixed, q)))
        assert rot < 1e-12 and trans < 1e-12


def test_jacobian_matches_finite_differences():
    model = panda_model(base_pose=Pose(np.eye(3),
                                       np.array([0.2, -0.1, 0.05])))
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
    pinv, damped = pseudoinverse(jac)
    assert not damped
    assert_allclose(pinv, np.vstack([np.eye(6), np.zeros((1, 6))]),
                    atol=1e-12)
    model = panda_model()
    jac = arm_state(model, READY)[2]
    pinv, damped = pseudoinverse(jac)
    assert not damped
    assert_allclose(jac @ pinv, np.eye(6), atol=1e-9)
    # rank-collapsed: damped answer stays finite and flagged
    singular = np.vstack([np.ones((1, 7)), np.zeros((5, 7))])
    pinv, damped = pseudoinverse(singular)
    assert damped
    assert np.all(np.isfinite(pinv))
    assert np.linalg.norm(pinv) < 1e4
    # the packaged arm stretched straight up: sigma_min ~ 3e-17, so
    # J J^T alone is numerically singular and only the damping saves it
    jac = arm_state(model, np.zeros(7))[2]
    assert np.linalg.svd(jac, compute_uv=False)[-1] < 1e-12
    pinv, damped = pseudoinverse(jac)
    assert damped
    assert np.all(np.isfinite(pinv))


def reference_chain(model, q):
    """The chain one joint at a time, each exponential built on its own:
    the stacked kernel must reproduce it bit for bit.  Returns (partial
    rotations, partial translations, flange pose, Jacobian)."""
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


def _assert_chain_bitwise(model, q):
    rots, trans, pose, jac = reference_chain(model, q)
    chain = _Chain(model, q)
    assert np.array_equal(chain.partial_rots, rots)
    assert np.array_equal(chain.partial_trans, trans)
    got_R, got_p = chain.flange()
    assert np.array_equal(got_R, pose.rotation)
    assert np.array_equal(got_p, pose.translation)
    assert np.array_equal(chain.jacobian, jac)


def test_stacked_chain_matches_per_joint_chain_bitwise():
    rng = np.random.default_rng(71)
    model = dataclasses.replace(panda_model(), base_pose=rand_pose(rng))
    for _ in range(200):
        _assert_chain_bitwise(model, rand_q(rng, model, shrink=0.0))
    _assert_chain_bitwise(model, np.zeros(7))
    toy = prismatic_toy()
    for _ in range(50):
        _assert_chain_bitwise(toy, rng.uniform(toy.lower, toy.upper))


def test_sew_points_frozen_at_zero():
    model = panda_model()
    s, e, w = _Chain(model, np.zeros(7)).sew_points()
    assert_allclose(s, [0.0, 0.0, 0.333], atol=1e-12)
    assert_allclose(e, [0.0825, 0.0, 0.649], atol=1e-12)
    assert_allclose(w, [0.0, 0.0, 1.033], atol=1e-12)
    # points ride the links: spinning the base yaw moves elbow x to y
    q = np.zeros(7)
    q[0] = np.pi / 2.0
    _, e2, _ = _Chain(model, q).sew_points()
    assert_allclose(e2, [0.0, 0.0825, 0.649], atol=1e-12)


def test_sew_angle_zero_in_reference_plane():
    # at the ready pose the whole arm lies in the xz-plane, which
    # contains the base vertical, so the elbow angle vanishes
    model = panda_model()
    assert abs(sew_angle(model, READY)) < 1e-12


def reference_sew_angle(model, q):
    """The elbow angle straight from the three points, without the
    gradient: sew_angle must reproduce it bit for bit."""
    s, e, w = _Chain(model, q).sew_points()
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


def test_sew_angle_matches_point_formula_bitwise():
    rng = np.random.default_rng(72)
    model = dataclasses.replace(panda_model(), base_pose=rand_pose(rng))
    for _ in range(500):
        q = rand_q(rng, model, shrink=0.0)
        assert sew_angle(model, q) == reference_sew_angle(model, q)
        assert arm_state(model, q)[3] == reference_sew_angle(model, q)
    # shoulder-wrist line along the base vertical: the x reference
    assert sew_angle(model, np.zeros(7)) == reference_sew_angle(
        model, np.zeros(7))


def test_sew_jacobian_matches_finite_differences():
    model = panda_model()
    rng = np.random.default_rng(43)
    h = 1e-6
    checked = 0
    for _ in range(40):
        q = rand_q(rng, model)
        s, e, w = _Chain(model, q).sew_points()
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


def test_augmented_jacobian_shape_and_rows():
    # self_motion_direction is the last column of the pseudoinverse of
    # the world Jacobian with the elbow-angle gradient stacked under it
    rng = np.random.default_rng(73)
    model = dataclasses.replace(panda_model(), base_pose=rand_pose(rng))
    for q in [READY, np.zeros(7)] + [rand_q(rng, model) for _ in range(50)]:
        _, _, jac, _, jpsi = arm_state(model, q)
        ja = np.vstack([jac, jpsi])
        assert ja.shape == (7, 7)
        pinv, damped = pseudoinverse(ja)
        direction, got_damped = self_motion_direction(model, q)
        assert np.array_equal(direction, pinv[:, -1])
        assert got_damped == damped


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
    d, damped = self_motion_direction(model, READY)
    assert not damped
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


def test_fused_pass_matches_oracle_under_moved_base():
    rng = np.random.default_rng(44)
    base = rand_pose(rng)
    model = panda_model(base_pose=base)
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


def prismatic_toy():
    return RobotModel(
        name="toy",
        twists=np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]),
        home_pose=Pose.identity(),
        lower=np.array([-3.0, -1.0, -1.0]),
        upper=np.array([3.0, 1.0, 1.0]),
        sew_indices=(0, 1, 2),
    )


def test_prismatic_joint_supported():
    model = prismatic_toy()
    pose = forward_kinematics(model, np.array([np.pi / 2.0, 0.3, 0.2]))
    # yaw by 90 degrees, then rise 0.3 and slide 0.2 along the rotated x
    assert_allclose(pose.translation, [0.0, 0.2, 0.3], atol=1e-12)
    jac = _Chain(model, np.array([np.pi / 2.0, 0.3, 0.2])).jacobian
    assert_allclose(jac[:, 1], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(jac[:, 2], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


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
                                            good.upper))):
        with pytest.raises(InvalidRobotError):
            dataclasses.replace(good, **{field: value})
    f = tmp_path / "robot.json"
    f.write_text("{not json")
    with pytest.raises(InvalidRobotError):
        load_robot_model(f)
    doc = panda_oracle.model_document()
    doc["units"]["angle"] = "deg"
    f.write_text(json.dumps(doc))
    with pytest.raises(InvalidRobotError):
        load_robot_model(f)
    doc = panda_oracle.model_document()
    doc["joint_limits"]["lower"][2] = 5.0
    f.write_text(json.dumps(doc))
    with pytest.raises(InvalidRobotError):
        load_robot_model(f)


def test_robot_model_round_trip(tmp_path):
    model = panda_model()
    path = tmp_path / "arm.json"
    save_robot_model(model, path)
    back = load_robot_model(path)
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
