"""Pose and screw algebra: frozen oracle values plus property checks.

Hand-derived values use the Chasles construction: for a zero-pitch screw
about an axis through point r, the displacement translation is (I - R) r,
plus h * theta along the axis for nonzero pitch.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from screwplan.screws import (
    INFINITE_PITCH,
    Pose,
    ScrewDisplacement,
    ROT_IDENTITY_TOL,
    compose,
    error_twist,
    exp_screw,
    exp_twists,
    hat,
    inverse,
    load_pose_sequence,
    log_pose,
    pose_error,
    pose_errors,
    pose_from_record,
    pose_to_record,
    quat_to_rot,
    rot_to_quat,
    save_pose_sequence,
    sclerp,
    sclerp_path,
    screw_from_pose,
    unit_twist,
)
from util import expm_dense, rand_pose, rand_screw, rand_unit


def adjoint(pose):
    """6x6 adjoint for [v; omega] twists: blocks [[R, hat(p) R], [0, R]]."""
    R, p = pose.rotation, pose.translation
    out = np.zeros((6, 6))
    out[:3, :3] = R
    out[:3, 3:] = hat(p) @ R
    out[3:, 3:] = R
    return out


def twist_hat(twist):
    """6-vector [v; omega] to its 4x4 matrix form [[hat(omega), v], [0, 0]]."""
    out = np.zeros((4, 4))
    out[:3, :3] = hat(twist[3:])
    out[:3, 3] = twist[:3]
    return out


def test_exp_half_turn_about_offset_axis():
    # zero-pitch screw about the z line through (0.1, 0, 0), magnitude pi:
    # translation must be (I - Rz(pi)) r = (0.2, 0, 0)
    axis = np.array([0.0, 0.0, 1.0])
    r = np.array([0.1, 0.0, 0.0])
    s = ScrewDisplacement(axis, np.cross(r, axis), 0.0, math.pi)
    g = exp_screw(unit_twist(s), s.magnitude)
    assert_allclose(g.rotation, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)
    assert_allclose(g.translation, [0.2, 0.0, 0.0], atol=1e-12)


def test_exp_matches_dense_matrix_exponential():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = rand_screw(rng)
        xi = unit_twist(s)
        g = exp_screw(xi, s.magnitude)
        T = expm_dense(twist_hat(xi * s.magnitude))
        assert_allclose(g.rotation, T[:3, :3], atol=1e-12)
        assert_allclose(g.translation, T[:3, 3], atol=1e-12)


def test_exp_zero_magnitude_is_identity():
    rng = np.random.default_rng(2)
    g = exp_screw(unit_twist(rand_screw(rng)), 0.0)
    assert_allclose(g.rotation, np.eye(3), atol=0.0)
    assert_allclose(g.translation, np.zeros(3), atol=0.0)


def test_unit_twist_stacking_is_linear_first():
    s = ScrewDisplacement(np.array([0.0, 0.0, 1.0]),
                          np.array([0.0, 0.1, 0.0]), 0.05, 1.0)
    xi = unit_twist(s)
    assert_allclose(xi, [0.0, 0.1, 0.05, 0.0, 0.0, 1.0], atol=0.0)


def test_unit_twist_of_pure_translation_has_zero_angular_part():
    s = ScrewDisplacement(np.array([1.0, 0.0, 0.0]), np.zeros(3),
                          INFINITE_PITCH, 0.3)
    xi = unit_twist(s)
    assert_allclose(xi, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=0.0)


def test_log_of_identity_is_canonical_zero_screw():
    xi, theta = log_pose(Pose.identity())
    assert theta == 0.0
    assert_allclose(xi[3:], [0.0, 0.0, 1.0], atol=0.0)
    assert_allclose(xi[:3], np.zeros(3), atol=0.0)


def test_log_of_pure_translation():
    g = Pose(np.eye(3), np.array([0.0, 0.0, 0.3]))
    s = screw_from_pose(g)
    assert s.pitch == INFINITE_PITCH
    assert_allclose(s.axis, [0.0, 0.0, 1.0], atol=1e-15)
    assert_allclose(s.magnitude, 0.3)
    assert_allclose(s.moment, np.zeros(3), atol=0.0)


def test_log_of_near_translations():
    # |p|^2 underflows below 2.2e-308: the axis must still come out unit
    for t in ([0.0, 0.0, 3.36727563e-162], [1e-160, -2e-160, 5e-161]):
        g = Pose(np.eye(3), np.array(t))
        xi, theta = log_pose(g)
        assert abs(np.linalg.norm(xi[:3]) - 1.0) < 1e-15
        assert_allclose(xi[:3] * theta, t, rtol=1e-15, atol=0.0)
        R, p = sclerp_path(Pose.identity(), g, [0.5])
        assert_allclose(p[0], 0.5 * np.array(t), rtol=1e-15, atol=0.0)
    # a rotation just above ROT_IDENTITY_TOL under a 1 m translation: the
    # screw line is ~1e8 m away, so its moment is ~1e8 long
    for angle in (1.05 * ROT_IDENTITY_TOL, 3.0 * ROT_IDENTITY_TOL):
        g = Pose(quat_to_rot([1.0, angle / 2.0, 0.0, 0.0]),
                 np.array([0.9, -0.8, 0.7]))
        g2 = exp_screw(*log_pose(g))
        assert np.abs(g2.rotation - g.rotation).max() <= 1e-12
        assert np.abs(g2.translation - g.translation).max() <= 1e-12
        R, p = sclerp_path(Pose.identity(), g, [1.0])
        assert np.abs(p[0] - g.translation).max() <= 1e-12


def test_exp_log_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = rand_screw(rng)
        g = exp_screw(unit_twist(s), s.magnitude)
        xi, theta = log_pose(g)
        g2 = exp_screw(xi, theta)
        rot, trans = pose_error(g, g2)
        assert rot < 1e-9 and trans < 1e-9


def test_log_recovers_screw_parameters():
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = rand_screw(rng, allow_prismatic=False)
        g = exp_screw(unit_twist(s), s.magnitude)
        r = screw_from_pose(g)
        assert_allclose(r.axis, s.axis, atol=1e-9)
        assert_allclose(r.moment, s.moment, atol=1e-9)
        assert_allclose(r.pitch, s.pitch, atol=1e-9)
        assert_allclose(r.magnitude, s.magnitude, atol=1e-9)
        # type invariants: unit axis, moment orthogonal to axis
        assert abs(np.linalg.norm(r.axis) - 1.0) < 1e-9
        assert abs(r.axis @ r.moment) < 1e-9


def test_round_trip_near_and_at_pi():
    rng = np.random.default_rng(5)
    for dt in (0.0, 1e-9, 1e-7, 1e-4):
        axis = rand_unit(rng)
        m = rng.normal(size=3) * 0.2
        m -= (m @ axis) * axis
        s = ScrewDisplacement(axis, m, 0.03, math.pi - dt)
        g = exp_screw(unit_twist(s), s.magnitude)
        xi, theta = log_pose(g)
        g2 = exp_screw(xi, theta)
        rot, trans = pose_error(g, g2)
        assert rot < 1e-9 and trans < 1e-9


@st.composite
def _screw_at(draw, angles):
    """A screw of any pitch, pure translations included, whose magnitude
    comes from `angles`: rand_screw keeps clear of these ends."""
    axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                  max_size=3).filter(
        lambda v: np.linalg.norm(v) > 0.1)))
    axis /= np.linalg.norm(axis)
    pitch = draw(st.one_of(st.floats(-0.5, 0.5), st.just(INFINITE_PITCH)))
    moment = np.zeros(3)
    if pitch != INFINITE_PITCH:
        moment = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                        max_size=3)))
        moment -= (moment @ axis) * axis
    return ScrewDisplacement(axis, moment, pitch, draw(angles))


@settings(max_examples=300, deadline=None)
@given(_screw_at(st.one_of(st.just(0.0), st.floats(1e-12, 1e-3),
                           st.floats(math.pi - 1e-6, math.pi))))
def test_exp_matches_dense_exponential_at_the_singular_ends(s):
    xi = unit_twist(s)
    g = exp_screw(xi, s.magnitude)
    T = expm_dense(twist_hat(xi * s.magnitude))
    assert np.abs(g.rotation - T[:3, :3]).max() <= 1e-12
    assert np.abs(g.translation - T[:3, 3]).max() <= 1e-12


@settings(max_examples=300, deadline=None)
@given(_screw_at(st.one_of(st.floats(1.01 * ROT_IDENTITY_TOL, 1e-6),
                           st.floats(math.pi - 1e-6, math.pi))))
def test_exp_log_round_trip_at_the_singular_ends(s):
    g = exp_screw(unit_twist(s), s.magnitude)
    g2 = exp_screw(*log_pose(g))
    assert np.abs(g2.rotation - g.rotation).max() <= 1e-12
    assert np.abs(g2.translation - g.translation).max() <= 1e-12


def test_compose_inverse_group_laws():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = rand_pose(rng), rand_pose(rng)
        rot, trans = pose_error(compose(a, inverse(a)), Pose.identity())
        assert rot < 1e-12 and trans < 1e-12
        # action law: (a b) x == a (b x)
        x = rng.normal(size=3)
        assert_allclose(compose(a, b).apply(x), a.apply(b.apply(x)),
                        atol=1e-12)


def test_compose_identity_passthrough():
    rng = np.random.default_rng(7)
    p = rand_pose(rng)
    q = compose(Pose.identity(), p)
    assert_allclose(q.rotation, p.rotation, atol=1e-12)
    assert_allclose(q.translation, p.translation, atol=1e-12)


def test_long_compose_chain_stays_orthonormal():
    rng = np.random.default_rng(8)
    g = Pose.identity()
    step = rand_pose(rng, span=0.01)
    for _ in range(20000):
        g = compose(g, step)
    dev = np.abs(g.rotation.T @ g.rotation - np.eye(3)).max()
    assert dev < 1e-12


def test_pose_error_345():
    a = Pose(np.eye(3), np.zeros(3))
    b = Pose(np.eye(3), np.array([0.003, 0.004, 0.0]))
    rot, trans = pose_error(a, b)
    assert rot == 0.0
    assert_allclose(trans, 0.005)
    assert pose_error(a, a) == (0.0, 0.0)


def test_pose_error_symmetric():
    rng = np.random.default_rng(9)
    a, b = rand_pose(rng), rand_pose(rng)
    assert_allclose(pose_error(a, b), pose_error(b, a), atol=1e-12)


def test_pose_errors_matches_pose_error():
    rng = np.random.default_rng(11)
    a = [rand_pose(rng) for _ in range(200)]
    b = [rand_pose(rng) for _ in range(200)]
    # near-coincident pairs and half turns
    for g in a[:20]:
        b.append(compose(g, Pose(quat_to_rot([1.0, 1e-9, 0.0, 0.0]),
                                 np.array([1e-9, 0.0, 0.0]))))
        b.append(compose(g, Pose(quat_to_rot([0.0, 0.0, 1.0, 0.0]),
                                 np.zeros(3))))
        a += [g, g]
    b[-1] = a[-1]
    rot, trans = pose_errors(np.stack([g.rotation for g in a]),
                             np.stack([g.translation for g in a]),
                             np.stack([g.rotation for g in b]),
                             np.stack([g.translation for g in b]))
    want = np.array([pose_error(x, y) for x, y in zip(a, b)])
    assert_allclose(rot, want[:, 0], rtol=0.0, atol=1e-15)
    assert_allclose(trans, want[:, 1], rtol=0.0, atol=1e-15)
    assert rot[-1] == trans[-1] == 0.0


def test_sclerp_endpoints_exact():
    rng = np.random.default_rng(10)
    for _ in range(50):
        gi, gf = rand_pose(rng), rand_pose(rng)
        for tau, ref in ((0.0, gi), (1.0, gf)):
            g = sclerp(gi, gf, tau)
            rot, trans = pose_error(g, ref)
            assert rot < 1e-12 and trans < 1e-12


def test_sclerp_halfway_pitch_screw():
    # half of a pitch-0.1 half turn about z: quarter turn, z-lift 0.05*pi
    s = ScrewDisplacement(np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.1,
                          math.pi)
    gf = exp_screw(unit_twist(s), s.magnitude)
    g = sclerp(Pose.identity(), gf, 0.5)
    assert_allclose(g.rotation,
                    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                    atol=1e-12)
    assert_allclose(g.translation, [0.0, 0.0, 0.05 * math.pi], atol=1e-12)


def test_sclerp_geodesic_screw_is_constant():
    # the relative displacement between any two path points lies on the
    # same screw axis with proportional magnitude
    rng = np.random.default_rng(11)
    for _ in range(100):
        gi, gf = rand_pose(rng), rand_pose(rng)
        s_full = screw_from_pose(compose(gf, inverse(gi)))
        if s_full.magnitude < 0.1 or s_full.magnitude > 3.0:
            continue
        t1, t2 = sorted(rng.uniform(0.0, 1.0, 2))
        if t2 - t1 < 0.05:
            continue
        g1 = sclerp(gi, gf, t1)
        g2 = sclerp(gi, gf, t2)
        s = screw_from_pose(compose(g2, inverse(g1)))
        assert_allclose(s.axis, s_full.axis, atol=1e-6)
        assert_allclose(s.moment, s_full.moment, atol=1e-6)
        assert_allclose(s.pitch, s_full.pitch, atol=1e-6)
        assert_allclose(s.magnitude, (t2 - t1) * s_full.magnitude, atol=1e-9)


def test_sclerp_constant_when_endpoints_equal():
    rng = np.random.default_rng(12)
    g = rand_pose(rng)
    for tau in (0.0, 0.3, 0.7, 1.0):
        rot, trans = pose_error(sclerp(g, g, tau), g)
        assert rot < 1e-12 and trans < 1e-12


def test_sclerp_pure_translation_is_straight_line():
    gi = Pose.identity()
    gf = Pose(np.eye(3), np.array([0.3, -0.2, 0.1]))
    g = sclerp(gi, gf, 0.25)
    assert_allclose(g.rotation, np.eye(3), atol=1e-15)
    assert_allclose(g.translation, [0.075, -0.05, 0.025], atol=1e-12)


def test_sclerp_path_matches_pointwise_sclerp():
    rng = np.random.default_rng(13)
    gi, gf = rand_pose(rng), rand_pose(rng)
    taus = np.linspace(0.0, 1.0, 17)
    R, p = sclerp_path(gi, gf, taus)
    for k, tau in enumerate(taus):
        g = sclerp(gi, gf, tau)
        assert_allclose(R[k], g.rotation, atol=1e-12)
        assert_allclose(p[k], g.translation, atol=1e-12)


def test_left_invariance_of_sclerp():
    rng = np.random.default_rng(14)
    h, gi, gf = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    a = sclerp(compose(h, gi), compose(h, gf), 0.4)
    b = compose(h, sclerp(gi, gf, 0.4))
    rot, trans = pose_error(a, b)
    assert rot < 1e-9 and trans < 1e-9


def test_quaternion_round_trip_includes_pi_rotations():
    rng = np.random.default_rng(15)
    for _ in range(200):
        R = quat_to_rot(rng.normal(size=4))
        assert_allclose(quat_to_rot(rot_to_quat(R)), R, atol=1e-12)
    for _ in range(20):
        axis = rand_unit(rng)
        W = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        R = np.eye(3) + 2.0 * (W @ W)  # rotation by exactly pi
        assert_allclose(quat_to_rot(rot_to_quat(R)), R, atol=1e-12)


def test_pose_record_round_trip():
    rng = np.random.default_rng(16)
    g = rand_pose(rng)
    rec = pose_to_record(g)
    assert set(rec) == {"t", "q"}
    assert rec["q"][0] >= 0.0
    g2 = pose_from_record(json.loads(json.dumps(rec)))
    rot, trans = pose_error(g, g2)
    assert rot < 1e-12 and trans < 1e-12


def test_pose_record_rejects_non_finite_and_zero_quaternion():
    for rec in ({"t": [0.0, 0.0, 0.0], "q": [math.nan, 0.0, 0.0, 0.0]},
                {"t": [0.0, math.inf, 0.0], "q": [1.0, 0.0, 0.0, 0.0]},
                {"t": [0.0, 0.0, 0.0], "q": [0.0, 0.0, 0.0, 0.0]}):
        with pytest.raises(ValueError):
            pose_from_record(rec)


def test_adjoint_transforms_twists_consistently():
    # Ad_g (xi theta) must equal log(g exp(xi theta) g^-1)
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = rand_pose(rng)
        s = rand_screw(rng)
        xi = unit_twist(s) * s.magnitude
        lhs = adjoint(g) @ xi
        conj = compose(compose(g, exp_screw(unit_twist(s), s.magnitude)),
                       inverse(g))
        xi2, theta2 = log_pose(conj)
        rhs = xi2 * theta2
        assert_allclose(lhs, rhs, atol=1e-9)


def test_pose_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(ValueError):
        Pose(-np.eye(3), np.zeros(3))  # det = -1


def test_pose_rejects_non_finite_rotation_and_translation():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not orthonormal"):
            Pose(np.full((3, 3), bad), np.zeros(3))
        rot = np.eye(3)
        rot[1, 2] = bad
        with pytest.raises(ValueError, match="not orthonormal"):
            Pose(rot, np.zeros(3))
        with pytest.raises(ValueError, match="translation must be finite"):
            Pose(np.eye(3), np.array([0.0, 0.0, bad]))
    # a reflection that passes the orthonormality test is still refused
    with pytest.raises(ValueError, match="not orthonormal"):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def _object_error_twist(goal, pose):
    xi, theta = log_pose(compose(goal, inverse(pose)))
    return xi * theta


def _object_sclerp_path(start, goal, taus):
    # reference: the exponential over log_pose of composed Pose objects
    xi, theta = log_pose(compose(goal, inverse(start)))
    W = hat(xi[3:])
    R, p = exp_twists(theta * np.asarray(taus, float), W, W @ W,
                      xi[:3, None])
    return R @ start.rotation, R @ start.translation + p


def _bitwise(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def test_error_twist_matches_object_path_bitwise():
    rng = np.random.default_rng(41)
    pairs = [(rand_pose(rng), rand_pose(rng)) for _ in range(200)]
    for angle in (0.0, 1e-12, 0.3 * ROT_IDENTITY_TOL, 0.99 * ROT_IDENTITY_TOL,
                  1.01 * ROT_IDENTITY_TOL, 1e-5, math.pi - 1e-6,
                  math.pi - 1e-12, math.pi):
        for _ in range(10):
            goal = rand_pose(rng)
            step = exp_screw(np.concatenate([rng.normal(size=3) * 0.1,
                                             rand_unit(rng)]), angle)
            pairs.append((goal, compose(inverse(step), goal)))
    g = rand_pose(rng)
    pairs += [(g, g), (Pose.identity(), Pose.identity()),
              (Pose(np.diag([-1.0, -1.0, 1.0]), np.array([0.1, 0.0, 0.0])),
               Pose.identity())]
    small = 0
    for goal, pose in pairs:
        ours = error_twist(goal, pose)
        assert _bitwise(ours, _object_error_twist(goal, pose))
        small += np.linalg.norm(ours[3:]) < ROT_IDENTITY_TOL
    assert small >= 30  # the translation branch was exercised


def test_log_pose_matches_screw_from_pose_bitwise():
    rng = np.random.default_rng(42)
    poses = [rand_pose(rng) for _ in range(100)]
    poses += [Pose.identity(), Pose(np.eye(3), np.array([0.0, 0.2, 0.0])),
              Pose(quat_to_rot([1.0, 1e-10, 0.0, 0.0]), np.ones(3)),
              Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.3, 0.1]))]
    for pose in poses:
        xi, theta = log_pose(pose)
        s = screw_from_pose(pose)
        assert _bitwise(xi, unit_twist(s)) and theta == s.magnitude
    xi, theta = log_pose(Pose.identity())
    assert _bitwise(xi * theta, np.zeros(6))


@st.composite
def _relative_pose(draw):
    """A random pose, or an exp_screw displacement whose rotation is below
    ROT_IDENTITY_TOL, zero (a pure translation) or within 1e-6 of pi."""
    unit = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(("random", "small", "translation",
                                 "near_pi")))
    t = np.array(draw(st.lists(unit, min_size=3, max_size=3)))
    if kind == "translation":
        return Pose(np.eye(3), t)
    if kind == "random":
        q = draw(st.lists(unit, min_size=4, max_size=4).filter(
            lambda v: np.linalg.norm(v) > 0.1))
        return Pose(quat_to_rot(q), t)
    angles = (st.floats(0.0, 0.99 * ROT_IDENTITY_TOL) if kind == "small"
              else st.floats(math.pi - 1e-6, math.pi))
    s = draw(_screw_at(angles))
    return exp_screw(unit_twist(s), s.magnitude)


_TAUS = np.linspace(-0.5, 1.5, 9)


@settings(max_examples=300, deadline=None)
@given(_relative_pose(), _relative_pose())
def test_relative_log_matches_object_route_bitwise(start, rel):
    goal = compose(rel, start)
    R, p = sclerp_path(start, goal, _TAUS)
    R_ref, p_ref = _object_sclerp_path(start, goal, _TAUS)
    assert _bitwise(R, R_ref) and _bitwise(p, p_ref)
    assert _bitwise(error_twist(goal, start),
                    _object_error_twist(goal, start))
    xi, theta = log_pose(rel)
    s = screw_from_pose(rel)
    assert _bitwise(xi, unit_twist(s)) and theta == s.magnitude
    for k, tau in enumerate(_TAUS):
        g = sclerp(start, goal, tau)
        assert np.abs(g.rotation - R_ref[k]).max() <= 1e-12
        assert np.abs(g.translation - p_ref[k]).max() <= 1e-12


def test_error_twist_rejects_what_the_poses_reject():
    goal = Pose.identity()
    for rot in (np.eye(3) * 1.001, np.diag([1.0, 1.0, -1.0])):
        # a pose that skipped validation, as a caller could hand in
        bad = object.__new__(Pose)
        object.__setattr__(bad, "rotation", rot)
        object.__setattr__(bad, "translation", np.zeros(3))
        with pytest.raises(ValueError, match="not orthonormal"):
            _object_error_twist(goal, bad)
        with pytest.raises(ValueError, match="not orthonormal"):
            error_twist(goal, bad)


def test_screw_displacement_validation():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ScrewDisplacement(z * 2.0, np.zeros(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        ScrewDisplacement(z, np.array([0.0, 0.0, 0.5]), 0.0, 1.0)  # m not orthogonal
    with pytest.raises(ValueError):
        ScrewDisplacement(z, np.array([0.1, 0.0, 0.0]), INFINITE_PITCH, 1.0)


def test_unit_twist_validation():
    # exp_screw checks the 6-vector [v; w] it is handed
    with pytest.raises(ValueError, match="angular part"):
        exp_screw(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2.0]), 1.0)
    with pytest.raises(ValueError, match="unit linear part"):
        exp_screw(np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="6-vector"):
        exp_screw(np.array([0.0, 0.0, 1.0]), 1.0)


def test_pose_arrays_are_immutable():
    g = Pose.identity()
    with pytest.raises(ValueError):
        g.rotation[0, 0] = 2.0


def test_pose_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    poses = [rand_pose(rng) for _ in range(6)]
    path = tmp_path / "poses.json"
    save_pose_sequence(poses, path)
    back = load_pose_sequence(path)
    assert len(back) == 6
    for a, b in zip(back, poses):
        rot, trans = pose_error(a, b)
        assert rot < 1e-14 and trans < 1e-14
    path.write_text(json.dumps({"format": "poses", "poses": []}))
    with pytest.raises(ValueError):
        load_pose_sequence(path)
