"""Demonstration loading, greedy constant-screw segmentation, guiding-pose
extraction and transfer."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwplan.demonstration import (
    BadQuaternionError,
    ConstraintModel,
    DegenerateDemonstrationError,
    Demonstration,
    MalformedDemonstrationError,
    NoAnchorError,
    NonMonotoneTimeError,
    TaskInstance,
    extract_guiding_poses,
    load_demonstration,
    load_segments,
    save_demonstration,
    save_segments,
    segment_demonstration,
    synthesize_demonstration,
    transfer_constraints,
)
from screwplan.screws import (
    INFINITE_PITCH,
    Pose,
    ScrewDisplacement,
    compose,
    exp_screw,
    inverse,
    pose_error,
    unit_twist,
)
from util import rand_pose, rand_unit

Z = np.array([0.0, 0.0, 1.0])


def _advance(pose, screw):
    """Displace a pose by a screw given in its own local frame."""
    return compose(pose, exp_screw(unit_twist(screw), screw.magnitude))


def pick_place_keys(start=None):
    """Four key poses: start, lift 0.1 m, transport with yaw, descend."""
    p0 = start if start is not None else Pose.identity()
    lift = ScrewDisplacement(Z, np.zeros(3), INFINITE_PITCH, 0.1)
    transport = ScrewDisplacement(Z, np.cross(np.array([0.2, 0.3, 0.0]), Z),
                                  0.0, 1.2)
    drop = ScrewDisplacement(-Z, np.zeros(3), INFINITE_PITCH, 0.1)
    p1 = _advance(p0, lift)
    p2 = compose(exp_screw(unit_twist(transport), transport.magnitude), p1)
    p3 = _advance(p2, drop)
    return [p0, p1, p2, p3]


# ---------------------------------------------------------------- loading


def test_load_well_formed_file(tmp_path):
    f = tmp_path / "demo.jsonl"
    f.write_text(
        '{"object_id": "brick_7", "units": "m"}\n'
        '{"t": 0.0, "pose": {"t": [0.0, 0.0, 0.0], "q": [1.0, 0.0, 0.0, 0.0]}}\n'
        '{"t": 0.033, "pose": {"t": [0.01, 0.0, 0.0], "q": [1.0, 0.0, 0.0, 0.0]}}\n'
    )
    demo = load_demonstration(f)
    assert demo.object_id == "brick_7"
    assert len(demo.poses) == 2
    assert_allclose(demo.times, [0.0, 0.033])
    assert_allclose(demo.poses[1].translation, [0.01, 0.0, 0.0])


def test_load_rejects_malformed(tmp_path):
    f = tmp_path / "demo.jsonl"
    f.write_text("not json at all\n")
    with pytest.raises(MalformedDemonstrationError):
        load_demonstration(f)

    f.write_text('{"units": "m"}\n{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n')
    with pytest.raises(MalformedDemonstrationError):
        load_demonstration(f)  # header missing object_id

    f.write_text(
        '{"object_id": "b", "units": "mm"}\n'
        '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(MalformedDemonstrationError):
        load_demonstration(f)  # wrong units

    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(MalformedDemonstrationError):
        load_demonstration(f)  # fewer than 2 samples


def test_load_rejects_non_monotone_time(tmp_path):
    f = tmp_path / "demo.jsonl"
    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        '{"t": 0.1, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(NonMonotoneTimeError):
        load_demonstration(f)


def test_load_quaternion_drift_policy(tmp_path):
    f = tmp_path / "demo.jsonl"
    # norm drift 5e-4: renormalized silently
    q = [1.0005, 0.0, 0.0, 0.0]
    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        f'{{"t": 0.0, "pose": {{"t": [0,0,0], "q": {q}}}}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    demo = load_demonstration(f)
    assert_allclose(demo.poses[0].rotation, np.eye(3), atol=1e-12)

    # norm drift beyond 1e-3: rejected
    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1.01, 0, 0, 0]}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(BadQuaternionError):
        load_demonstration(f)


def test_load_rejects_non_finite_pose(tmp_path):
    f = tmp_path / "demo.jsonl"
    for bad in ('{"t": [0, 0, 0], "q": [NaN, 0, 0, 0]}',
                '{"t": [0, 0, NaN], "q": [1, 0, 0, 0]}',
                '{"t": [0, Infinity, 0], "q": [1, 0, 0, 0]}',
                '{"t": [0, 0, 0], "q": [1, -Infinity, 0, 0]}'):
        f.write_text(
            '{"object_id": "b", "units": "m"}\n'
            '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
            f'{{"t": 0.1, "pose": {bad}}}\n'
        )
        with pytest.raises(MalformedDemonstrationError, match="line 3"):
            load_demonstration(f)


def test_save_load_round_trip(tmp_path):
    demo = synthesize_demonstration(pick_place_keys(), samples_per_leg=5,
                                    object_id="brick")
    f = tmp_path / "demo.jsonl"
    save_demonstration(demo, f)
    back = load_demonstration(f)
    assert back.object_id == "brick"
    assert_allclose(back.times, demo.times)
    for a, b in zip(back.poses, demo.poses):
        rot, trans = pose_error(a, b)
        assert rot < 1e-12 and trans < 1e-12


# ----------------------------------------------------------- segmentation


def test_single_screw_demo_is_one_segment():
    rng = np.random.default_rng(20)
    axis = rand_unit(rng)
    m = np.cross(rng.uniform(-0.3, 0.3, 3), axis)
    s = ScrewDisplacement(axis, m, 0.05, 1.4)
    goal = exp_screw(unit_twist(s), s.magnitude)
    demo = synthesize_demonstration([Pose.identity(), goal],
                                    samples_per_leg=60)
    segs = segment_demonstration(demo)
    assert len(segs) == 1
    assert segs[0].start_index == 0 and segs[0].end_index == 60
    assert_allclose(segs[0].screw.axis, axis, atol=1e-9)
    assert_allclose(segs[0].screw.magnitude, 1.4, atol=1e-9)


def test_translation_then_rotation_boundary():
    # 30 samples of pure z translation, then 30 of rotation about a fixed
    # offset axis; boundary must land within one sample of the corner
    k0 = Pose.identity()
    k1 = Pose(np.eye(3), np.array([0.0, 0.0, 0.3]))
    turn = ScrewDisplacement(np.array([1.0, 0.0, 0.0]),
                             np.cross(np.array([0.0, 0.2, 0.3]),
                                      np.array([1.0, 0.0, 0.0])), 0.0, 1.0)
    k2 = compose(exp_screw(unit_twist(turn), turn.magnitude), k1)
    demo = synthesize_demonstration([k0, k1, k2], samples_per_leg=30)
    segs = segment_demonstration(demo)
    assert len(segs) == 2
    assert abs(segs[0].end_index - 30) <= 1
    assert segs[1].start_index == segs[0].end_index
    assert segs[-1].end_index == len(demo.poses) - 1


def test_three_screw_recovery_and_contiguity():
    # the slow drop leg gets fewer samples so its per-sample motion clears
    # the fit tolerance; a leg slower than the tolerance may legitimately
    # donate a couple of samples to its neighbor under longest-fit
    demo = synthesize_demonstration(pick_place_keys(),
                                    samples_per_leg=[50, 50, 12])
    segs = segment_demonstration(demo)
    assert len(segs) == 3
    assert segs[0].start_index == 0
    for a, b in zip(segs, segs[1:]):
        assert b.start_index == a.end_index
    assert abs(segs[0].end_index - 50) <= 1
    assert abs(segs[1].end_index - 100) <= 1


def rotation_dominant_keys(rng, k):
    """k legs of well-separated rotation-dominant screws, so the per-sample
    arc stays well above both fit tolerances and bounded sensor noise."""
    keys = [Pose.identity()]
    prev_axis = None
    for _ in range(k):
        axis = rand_unit(rng)
        while prev_axis is not None and abs(axis @ prev_axis) > 0.7:
            axis = rand_unit(rng)
        prev_axis = axis
        m = np.cross(rng.uniform(-0.1, 0.1, 3), axis)
        s = ScrewDisplacement(axis, m, rng.uniform(-0.08, 0.08),
                              rng.uniform(0.9, 1.6))
        keys.append(_advance(keys[-1], s))
    return keys


def test_segmentation_with_bounded_noise():
    rng = np.random.default_rng(21)
    demo = synthesize_demonstration(rotation_dominant_keys(rng, 3),
                                    samples_per_leg=50,
                                    noise=(math.radians(0.2), 0.001),
                                    rng=rng)
    segs = segment_demonstration(demo)
    assert len(segs) == 3


def test_stationary_dwell_does_not_split():
    k0 = Pose.identity()
    k1 = Pose(np.eye(3), np.array([0.0, 0.0, 0.3]))
    demo = synthesize_demonstration([k0, k1], samples_per_leg=20)
    # repeat a mid sample (sensor dwell)
    times = np.concatenate([demo.times, [demo.times[-1] + 0.02]])
    poses = list(demo.poses)
    poses.insert(10, poses[10])
    dwell = Demonstration(times, tuple(poses), demo.object_id)
    segs = segment_demonstration(dwell)
    assert len(segs) == 1


def test_degenerate_demo_rejected():
    g = Pose.identity()
    demo = Demonstration(np.array([0.0, 0.1, 0.2]), (g, g, g), "b")
    with pytest.raises(DegenerateDemonstrationError):
        segment_demonstration(demo)


def test_segmentation_frame_equivariance():
    rng = np.random.default_rng(22)
    demo = synthesize_demonstration(pick_place_keys(), samples_per_leg=40)
    h = rand_pose(rng)
    moved = Demonstration(demo.times,
                          tuple(compose(h, p) for p in demo.poses),
                          demo.object_id)
    a = [(s.start_index, s.end_index) for s in segment_demonstration(demo)]
    b = [(s.start_index, s.end_index) for s in segment_demonstration(moved)]
    assert a == b


# ------------------------------------------------- guiding poses, transfer


def test_extract_anchors_pick_place():
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=40)
    segs = segment_demonstration(demo)
    instance = TaskInstance(keys[0], keys[-1])
    model = extract_guiding_poses(segs, instance, roi_radius=0.15)
    assert len(model.guiding_poses) == 4
    assert model.anchor_initial == (0, 1)
    assert model.anchor_goal == (2, 3)


def test_extract_single_segment_two_anchors():
    k0 = Pose.identity()
    k1 = Pose(np.eye(3), np.array([0.05, 0.0, 0.0]))
    demo = synthesize_demonstration([k0, k1], samples_per_leg=20)
    segs = segment_demonstration(demo)
    model = extract_guiding_poses(segs, TaskInstance(k0, k1), roi_radius=0.2)
    assert len(model.guiding_poses) == 2
    assert model.anchor_initial == (0,)
    assert model.anchor_goal == (1,)


def test_extract_no_anchor_raises():
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=30)
    segs = segment_demonstration(demo)
    far = Pose(np.eye(3), np.array([5.0, 5.0, 0.0]))
    with pytest.raises(NoAnchorError):
        extract_guiding_poses(segs, TaskInstance(far, keys[-1]), 0.15)
    with pytest.raises(NoAnchorError):
        extract_guiding_poses(segs, TaskInstance(keys[0], far), 0.15)


def test_transfer_endpoints_meet_new_instance():
    rng = np.random.default_rng(23)
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=40)
    model = extract_guiding_poses(segment_demonstration(demo),
                                  TaskInstance(keys[0], keys[-1]), 0.15)
    new = TaskInstance(rand_pose(rng), rand_pose(rng))
    out = transfer_constraints(model, new)
    assert len(out) == len(model.guiding_poses)
    rot, trans = pose_error(out[0], new.initial)
    assert rot < 1e-9 and trans < 1e-9
    rot, trans = pose_error(out[-1], new.goal)
    assert rot < 1e-9 and trans < 1e-9


def test_transfer_identity_instance_is_identity():
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=40)
    model = extract_guiding_poses(segment_demonstration(demo),
                                  TaskInstance(keys[0], keys[-1]), 0.15)
    out = transfer_constraints(model, model.source)
    for a, b in zip(out, model.guiding_poses):
        rot, trans = pose_error(a, b)
        assert rot < 1e-12 and trans < 1e-12


def test_transfer_frame_invariance():
    rng = np.random.default_rng(24)
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=40)
    model = extract_guiding_poses(segment_demonstration(demo),
                                  TaskInstance(keys[0], keys[-1]), 0.15)
    for _ in range(20):
        new = TaskInstance(rand_pose(rng), rand_pose(rng))
        h = rand_pose(rng)
        moved = TaskInstance(compose(h, new.initial), compose(h, new.goal))
        a = transfer_constraints(model, moved)
        b = [compose(h, g) for g in transfer_constraints(model, new)]
        for x, y in zip(a, b):
            rot, trans = pose_error(x, y)
            assert rot < 1e-9 and trans < 1e-9


def test_transfer_preserves_anchored_relative_screws():
    # within an anchored run the relative displacement conjugates, so its
    # rotation angle and translation norm are unchanged
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=40)
    model = extract_guiding_poses(segment_demonstration(demo),
                                  TaskInstance(keys[0], keys[-1]), 0.15)
    rng = np.random.default_rng(25)
    new = TaskInstance(rand_pose(rng), rand_pose(rng))
    out = transfer_constraints(model, new)
    i, j = model.anchor_initial[0], model.anchor_initial[-1]
    before = compose(model.guiding_poses[j], inverse(model.guiding_poses[i]))
    after = compose(out[j], inverse(out[i]))
    a1 = compose(new.initial, inverse(model.source.initial))
    conj = compose(compose(a1, before), inverse(a1))
    rot, trans = pose_error(after, conj)
    assert rot < 1e-9 and trans < 1e-9


def test_constraint_model_validation():
    g = [Pose.identity(), Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))]
    inst = TaskInstance(g[0], g[1])
    with pytest.raises(ValueError):
        ConstraintModel(tuple(g), (1,), (0,), inst)  # not prefix/suffix
    with pytest.raises(ValueError):
        ConstraintModel(tuple(g), (0, 1), (1,), inst)  # overlap
    with pytest.raises(ValueError):
        ConstraintModel(tuple(g), (), (1,), inst)  # empty initial set


def test_demonstration_validation():
    g = Pose.identity()
    h = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        Demonstration(np.array([0.0]), (g,), "b")
    with pytest.raises(ValueError):
        Demonstration(np.array([0.0, 0.0]), (g, h), "b")


def test_segments_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    keys = [rand_pose(rng) for _ in range(4)]
    demo = synthesize_demonstration(keys, samples_per_leg=60,
                                    object_id="probe")
    segments = segment_demonstration(demo)
    path = tmp_path / "segments.json"
    save_segments(segments, path, object_id="probe", fit_tol=(0.02, 0.005))
    back = load_segments(path)
    assert len(back) == len(segments)
    for a, b in zip(back, segments):
        assert (a.start_index, a.end_index) == (b.start_index, b.end_index)
        for got, want in ((a.start_pose, b.start_pose),
                          (a.end_pose, b.end_pose)):
            rot, trans = pose_error(got, want)
            assert rot < 1e-13 and trans < 1e-13
        # the screw is rebuilt from the poses, so it must agree too
        assert_allclose(a.screw.axis, b.screw.axis, atol=1e-9)
        assert a.screw.magnitude == pytest.approx(b.screw.magnitude,
                                                  abs=1e-9)
    path.write_text(json.dumps({"format": "spans", "segments": []}))
    with pytest.raises(MalformedDemonstrationError):
        load_segments(path)
