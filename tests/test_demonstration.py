"""Demonstration loading, greedy constant-screw segmentation, guiding-pose
extraction and transfer."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from screwplan import demonstration, records
from screwplan.demonstration import (
    BadQuaternionError,
    ConstraintModel,
    DegenerateDemonstrationError,
    DemonstrationError,
    Demonstration,
    MalformedDemonstrationError,
    MalformedModelError,
    NoAnchorError,
    NonMonotoneTimeError,
    TaskInstance,
    extract_guiding_poses,
    segment_demonstration,
    synthesize_demonstration,
    transfer_constraints,
)
from screwplan.screws import (
    INFINITE_PITCH,
    Pose,
    ScrewDisplacement,
    _quat_pivot,
    compose,
    exp_screw,
    inverse,
    pose_error,
    quat_to_rot,
    sclerp_path,
    unit_twist,
)
from util import (pinned_counts, pose_errors, python_calls, rand_pose,
                  rand_unit)

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
    demo = records.load("demonstration", f)
    assert demo.object_id == "brick_7"
    assert len(demo.poses) == 2
    assert_allclose(demo.times, [0.0, 0.033])
    assert_allclose(demo.poses[1].translation, [0.01, 0.0, 0.0])


def test_load_rejects_malformed(tmp_path):
    f = tmp_path / "demo.jsonl"
    f.write_text("not json at all\n")
    with pytest.raises(MalformedDemonstrationError):
        records.load("demonstration", f)

    f.write_text('{"units": "m"}\n{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n')
    with pytest.raises(MalformedDemonstrationError):
        records.load("demonstration", f)  # header missing object_id

    f.write_text(
        '{"object_id": "b", "units": "mm"}\n'
        '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(MalformedDemonstrationError):
        records.load("demonstration", f)  # wrong units

    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(MalformedDemonstrationError):
        records.load("demonstration", f)  # fewer than 2 samples


def test_load_rejects_non_monotone_time(tmp_path):
    f = tmp_path / "demo.jsonl"
    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        '{"t": 0.1, "pose": {"t": [0,0,0], "q": [1,0,0,0]}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(NonMonotoneTimeError):
        records.load("demonstration", f)


def test_load_quaternion_drift_policy(tmp_path):
    f = tmp_path / "demo.jsonl"
    # norm drift 5e-4: renormalized silently
    q = [1.0005, 0.0, 0.0, 0.0]
    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        f'{{"t": 0.0, "pose": {{"t": [0,0,0], "q": {q}}}}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    demo = records.load("demonstration", f)
    assert_allclose(demo.poses[0].rotation, np.eye(3), atol=1e-12)

    # norm drift beyond 1e-3: rejected
    f.write_text(
        '{"object_id": "b", "units": "m"}\n'
        '{"t": 0.0, "pose": {"t": [0,0,0], "q": [1.01, 0, 0, 0]}}\n'
        '{"t": 0.1, "pose": {"t": [0,0,1], "q": [1,0,0,0]}}\n'
    )
    with pytest.raises(BadQuaternionError):
        records.load("demonstration", f)


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
            records.load("demonstration", f)


def test_save_load_round_trip(tmp_path):
    demo = synthesize_demonstration(pick_place_keys(), samples_per_leg=5,
                                    object_id="brick")
    f = tmp_path / "demo.jsonl"
    records.save("demonstration", demo, f)
    back = records.load("demonstration", f)
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


def _chord_errors(poses, Rs, ps, start, end, cum):
    """Reference: (rotation, translation) deviations of the interior
    samples of one window of positive arc from its constant-screw
    interpolant, one sclerp_path and pose_errors call."""
    taus = (cum[start + 1:end] - cum[start]) / (cum[end] - cum[start])
    return pose_errors(*sclerp_path(poses[start], poses[end], taus),
                       Rs[start + 1:end], ps[start + 1:end])


def _deviation_from_chord(poses, Rs, ps, start, end, cum):
    """Reference: worst (rotation, translation) deviation of the interior
    samples of one window from its constant-screw interpolant."""
    if cum[end] - cum[start] <= 0.0:
        return 0.0, 0.0
    rot, trans = _chord_errors(poses, Rs, ps, start, end, cum)
    return float(rot.max(initial=0.0)), float(trans.max(initial=0.0))


def _arc_length(poses):
    inc = [r + t for r, t in (pose_error(a, b)
                              for a, b in zip(poses, poses[1:]))]
    return np.concatenate([[0.0], np.cumsum(inc)])


def reference_segment(demo, fit_tol=(0.02, 0.005)):
    """Reference: the greedy longest-fit split grown one window at a time,
    as (start, end) pairs."""
    rot_tol, trans_tol = fit_tol
    poses = demo.poses
    n = len(poses)
    Rs = np.stack([p.rotation for p in poses])
    ps = np.stack([p.translation for p in poses])
    cum = _arc_length(poses)
    out = []
    a = 0
    while a < n - 1:
        b = a + 1
        while b + 1 <= n - 1:
            rot, trans = _deviation_from_chord(poses, Rs, ps, a, b + 1, cum)
            if rot > rot_tol or trans > trans_tol:
                break
            b += 1
        out.append((a, b))
        a = b
    return out


def _spans(segments):
    return [(s.start_index, s.end_index) for s in segments]


def _reference_cases(rng):
    """(demo, fit_tol) pairs: clean and noisy demos of 1-3 screws, some
    with pure-translation legs or legs near pi, some with dwells
    (repeated samples, so windows of zero arc length), 2- and 3-sample
    demos, under tight, default and loose tolerances."""
    tols = ((0.002, 0.0005), (0.02, 0.005), (0.2, 0.05))
    noise = (math.radians(0.2), 0.001)

    def leg(kind):
        axis = rand_unit(rng)
        if kind == "translation":
            return ScrewDisplacement(axis, np.zeros(3), INFINITE_PITCH,
                                     rng.uniform(0.05, 0.5))
        m = np.cross(rng.uniform(-0.3, 0.3, 3), axis)
        theta = (rng.uniform(math.pi - 1e-3, math.pi) if kind == "pi"
                 else rng.uniform(0.3, 1.5))
        return ScrewDisplacement(axis, m, rng.uniform(-0.2, 0.2), theta)

    def keys(k, kinds):
        out = [rand_pose(rng)]
        for _ in range(k):
            s = leg(kinds[rng.integers(len(kinds))])
            out.append(compose(exp_screw(unit_twist(s), s.magnitude), out[-1]))
        return out

    cases = []
    for i in range(60):
        k = i % 3 + 1
        tol = tols[i % len(tols)]
        for kinds in (("screw",), ("screw", "translation"), ("pi", "screw")):
            demo = synthesize_demonstration(
                keys(k, kinds), samples_per_leg=int(rng.integers(8, 41)),
                noise=noise if i % 2 else (0.0, 0.0), rng=rng)
            cases.append((demo, tol))
        # dwells: repeat some samples, one of them the first
        poses = list(demo.poses)
        for j in (0, *rng.integers(0, len(poses), 3)):
            poses[j:j] = [poses[j]] * int(rng.integers(1, 4))
        cases.append((Demonstration(0.02 * np.arange(len(poses)),
                                    tuple(poses), "dwell"), tol))
        # 2 and 3 samples
        short = tuple(rand_pose(rng) for _ in range(2 + i % 2))
        cases.append((Demonstration(0.02 * np.arange(len(short)), short,
                                    "short"), tol))
    return cases


def test_split_matches_window_by_window_reference():
    cases = _reference_cases(np.random.default_rng(24))
    assert len(cases) >= 300
    for demo, tol in cases:
        assert _spans(segment_demonstration(demo, tol)) == \
            reference_segment(demo, tol)


def test_closed_form_errors_match_the_interpolant_per_sample():
    # every sample of every window from three starts of each reference
    # demo: pure translations, legs near pi, dwells and noise
    worst = 0.0
    for demo, _ in _reference_cases(np.random.default_rng(24)):
        poses = demo.poses
        n = len(poses)
        Rs = np.stack([p.rotation for p in poses])
        ps = np.stack([p.translation for p in poses])
        cum = _arc_length(poses)
        Rl, pl = Rs.tolist(), ps.tolist()
        q = np.array([_quat_pivot(R) for R in Rl]).T
        q /= np.linalg.norm(q, axis=0)
        for a in sorted({0, n // 2, max(n - 3, 0)}):
            ends = [e for e in range(a + 2, n) if cum[e] > cum[a]]
            if not ends:
                continue
            rot, trans, end = demonstration._window_errors(
                Rl, pl, ps.T.copy(), q, cum, a, ends)
            want = [_chord_errors(poses, Rs, ps, a, e, cum) for e in ends]
            assert_allclose(end, np.repeat(ends, [e - a - 1 for e in ends]))
            want_rot, want_trans = map(np.concatenate, zip(*want))
            worst = max(worst, np.abs(rot - want_rot).max(),
                        np.abs(trans - want_trans).max())
    assert worst <= 1e-12


def test_split_stops_at_the_first_misfit():
    # x positions along a line that backtracks once: the window 0..3
    # misfits (sample 2 sits 0.19 m off its arc-length place), the longer
    # window 0..4 fits (worst 0.1 m), and the turn at sample 6 breaks
    # every window past it
    xs = ((0, 0), (1, 0), (2, 0), (1.9, 0), (4, 0), (5.8, 0), (5.8, 2),
          (5.8, 4))
    poses = tuple(Pose(np.eye(3), np.array([x, y, 0.0])) for x, y in xs)
    demo = Demonstration(0.02 * np.arange(len(poses)), poses, "backtrack")
    tol = (0.01, 0.15)
    Rs = np.stack([p.rotation for p in poses])
    ps = np.stack([p.translation for p in poses])
    cum = _arc_length(poses)
    worst = [_deviation_from_chord(poses, Rs, ps, 0, e, cum)[1]
             for e in range(2, len(poses))]
    fits = [w <= tol[1] for w in worst]
    assert fits == [True, False, True, True, False, False]
    want = [(0, 2), (2, 3), (3, 5), (5, 7)]
    assert reference_segment(demo, tol) == want
    assert _spans(segment_demonstration(demo, tol)) == want


def reference_synthesize(keys, samples_per_leg, noise, rng):
    """Reference: the noisy samples wobbled one Pose at a time, a
    quat_to_rot rotation and a shift per sample."""
    counts = (samples_per_leg if isinstance(samples_per_leg, list)
              else [samples_per_leg] * (len(keys) - 1))
    poses = [keys[0]]
    for a, b, m in zip(keys, keys[1:], counts):
        R, p = sclerp_path(a, b, np.linspace(0.0, 1.0, m + 1)[1:])
        poses.extend(Pose(R[k], p[k]) for k in range(m))
    rot_amp, trans_amp = noise
    wobbled = []
    for g in poses:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        half = 0.5 * rng.uniform(0.0, rot_amp)
        q = np.concatenate([[math.cos(half)], math.sin(half) * axis])
        d = rng.normal(size=3)
        d *= rng.uniform(0.0, trans_amp) / np.linalg.norm(d)
        wobbled.append(Pose(quat_to_rot(q) @ g.rotation, g.translation + d))
    return wobbled


def test_stacked_wobble_matches_per_sample_loop():
    # the same draws in the same order: samples agree to rounding and
    # the generator ends in the same state
    keys_rng = np.random.default_rng(26)
    worst = 0.0
    for seed in range(12):
        keys = (pick_place_keys(rand_pose(keys_rng)) if seed % 2
                else rotation_dominant_keys(keys_rng, seed % 3 + 1))
        count = [7, 30, 12][:len(keys) - 1] if seed % 3 == 0 else 25
        noise = ((math.radians(0.2), 0.001), (0.3, 0.0), (0.0, 0.05))[
            seed % 3]
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        demo = synthesize_demonstration(keys, samples_per_leg=count,
                                        noise=noise, rng=rng)
        want = reference_synthesize(keys, count, noise, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert len(demo.poses) == len(want)
        for got, ref in zip(demo.poses, want):
            worst = max(worst,
                        np.abs(got.rotation - ref.rotation).max(),
                        np.abs(got.translation - ref.translation).max())
    assert worst <= 1e-15


@pinned_counts
def test_segmentation_window_call_count(monkeypatch):
    window_errors = demonstration._window_errors
    windows = [0]

    def counted(*args):
        windows[0] += len(args[6])  # the window ends scored
        return window_errors(*args)

    monkeypatch.setattr(demonstration, "_window_errors", counted)
    counts = {}
    for per_leg in (50, 100):
        demo = synthesize_demonstration(pick_place_keys(),
                                        samples_per_leg=per_leg)
        windows[0] = 0
        segs, calls = python_calls(lambda: segment_demonstration(demo),
                                   skip=counted.__code__)
        assert len(segs) == 3
        counts[per_leg] = windows[0], calls
    (short, short_calls), (long, long_calls) = counts[50], counts[100]
    assert (short, long) == (153, 299)
    # Python-level calls per scored window, the per-sample set-up
    # (arc length, quaternions) included: 2205 calls over 146 windows
    assert (long_calls - short_calls) / (long - short) <= 15.11


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


def test_extract_checks_roi_radius():
    keys = pick_place_keys()
    segs = segment_demonstration(
        synthesize_demonstration(keys, samples_per_leg=40))
    instance = TaskInstance(keys[0], keys[-1])
    for radius in (math.nan, math.inf, -0.01, "x", True, None, [0.15]):
        with pytest.raises(DemonstrationError, match="roi_radius"):
            extract_guiding_poses(segs, instance, radius)
    for radius in (np.float64(0.15), 1):
        model = extract_guiding_poses(segs, instance, radius)
        assert model.anchor_initial[0] == 0
        assert model.anchor_goal[-1] == len(model.guiding_poses) - 1


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


_poses = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda q: np.linalg.norm(q) > 0.1),
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)).map(
        lambda qt: Pose(quat_to_rot(qt[0]), np.array(qt[1])))


@st.composite
def _constraint_models(draw):
    """Any guiding poses, initial anchors a nonempty prefix and goal
    anchors a nonempty suffix, possibly with an unanchored middle run."""
    n = draw(st.integers(2, 8))
    k_initial = draw(st.integers(1, n - 1))
    k_goal = draw(st.integers(1, n - k_initial))
    return ConstraintModel(
        draw(st.lists(_poses, min_size=n, max_size=n)),
        tuple(range(k_initial)), tuple(range(n - k_goal, n)),
        TaskInstance(draw(_poses), draw(_poses)))


def _assert_poses_close(a, b, tol):
    rot, trans = pose_error(a, b)
    assert rot <= tol and trans <= tol


@settings(max_examples=200, deadline=None)
@given(_constraint_models(), _poses, _poses, _poses)
def test_transfer_invariance(model, initial, goal, T):
    # to its own source instance the model transfers to itself
    for a, b in zip(transfer_constraints(model, model.source),
                    model.guiding_poses):
        _assert_poses_close(a, b, 1e-12)
    # moving both instance poses by T moves every guiding pose by T
    new = TaskInstance(initial, goal)
    moved = TaskInstance(compose(T, initial), compose(T, goal))
    out = transfer_constraints(model, new)
    out_moved = transfer_constraints(model, moved)
    assert len(out) == len(out_moved) == len(model.guiding_poses)
    for a, b in zip(out_moved, out):
        _assert_poses_close(a, compose(T, b), 1e-12)


@settings(max_examples=200, deadline=None)
@given(_constraint_models(), _poses, _poses)
def test_transfer_matches_composed_poses_bitwise(model, initial, goal):
    # the float-row maps give exactly the Pose route's numbers
    new = TaskInstance(initial, goal)
    last_initial, first_goal = model.anchor_initial[-1], model.anchor_goal[0]
    cut = last_initial + 1 + (first_goal - last_initial) // 2
    to_initial = compose(initial, inverse(model.source.initial))
    to_goal = compose(goal, inverse(model.source.goal))
    out = transfer_constraints(model, new)
    assert len(out) == len(model.guiding_poses)
    for i, (got, g) in enumerate(zip(out, model.guiding_poses)):
        want = compose(to_initial if i < cut else to_goal, g)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)


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
    # a Python caller gets the reader rule too: no strings for times,
    # no number for the object id
    for times, object_id in ((["0.0", "0.02"], "b"), ([0.0, True], "b"),
                             ([0.0, math.nan], "b"), ([[0.0, 0.02]], "b"),
                             (np.array(["0.0", "0.02"]), "b"),
                             (np.array([0.0, math.inf]), "b"),
                             (np.array([[0.0, 0.02]]), "b"),
                             ([0.0, 0.02], 3)):
        with pytest.raises(MalformedDemonstrationError):
            Demonstration(times, (g, h), object_id)
    # samples must be poses
    for poses in (("x", "y"), (np.eye(4), np.eye(4)), (g, None)):
        with pytest.raises(MalformedDemonstrationError, match="pose"):
            Demonstration([0.0, 0.02], poses, "o")
    for initial, goal in (("a", 3), (g, None), (np.eye(4), h)):
        with pytest.raises(DemonstrationError):
            TaskInstance(initial, goal)


def test_numeric_arguments_are_checked():
    demo = synthesize_demonstration(pick_place_keys(), samples_per_leg=10)
    for fit_tol in ((True, 0.005), (0.02, math.nan), (-0.01, 0.005),
                    (0.02, math.inf), ("0.02", 0.005), (0.02,), 0.02):
        with pytest.raises(DemonstrationError, match="fit"):
            segment_demonstration(demo, fit_tol)
    for noise in ((math.nan, 0.0), (0.0, -0.001), (True, 0.0),
                  (0.0, math.inf), (0.01,)):
        with pytest.raises(ValueError, match="noise"):
            synthesize_demonstration(pick_place_keys(), samples_per_leg=5,
                                     noise=noise)
    # three legs: one whole count >= 1 for all, or a list of three
    for count in (0, -1, 2.5, True, "5", None, math.nan, [5, 5],
                  (5, 0, 5), [5, 5, 5, 5], [5.5, 5, 5], [5, True, 5]):
        with pytest.raises(ValueError, match="samples_per_leg"):
            synthesize_demonstration(pick_place_keys(), samples_per_leg=count)
    for dt in ("x", math.nan, math.inf, 0.0, -0.02, True, None):
        with pytest.raises(ValueError, match="dt"):
            synthesize_demonstration(pick_place_keys(), samples_per_leg=5,
                                     dt=dt)
    for count in (np.int64(5), 5.0, [5, np.int64(5), 5.0],
                  np.array([5, 5, 5])):
        demo = synthesize_demonstration(pick_place_keys(),
                                        samples_per_leg=count, dt=np.int64(1))
        assert len(demo.poses) == 16
        assert_allclose(demo.times, np.arange(16.0))


def test_segments_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    keys = [rand_pose(rng) for _ in range(4)]
    demo = synthesize_demonstration(keys, samples_per_leg=60,
                                    object_id="probe")
    segments = segment_demonstration(demo)
    path = tmp_path / "segments.json"
    records.save("segments", segments, path, object_id="probe",
                 fit_tol=(0.02, 0.005))
    back = records.load("segments", path)
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
        records.load("segments", path)


def test_constraint_model_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    keys = pick_place_keys(rand_pose(rng, span=0.1))
    demo = synthesize_demonstration(keys, samples_per_leg=20)
    model = extract_guiding_poses(segment_demonstration(demo),
                                  TaskInstance(keys[0], keys[-1]), 0.15)
    path = tmp_path / "model.json"
    records.save("constraint_model", model, path)
    back = records.load("constraint_model", path)
    assert back.anchor_initial == model.anchor_initial
    assert back.anchor_goal == model.anchor_goal
    assert len(back.guiding_poses) == len(model.guiding_poses)
    for got, want in ((back.source.initial, model.source.initial),
                      (back.source.goal, model.source.goal),
                      *zip(back.guiding_poses, model.guiding_poses)):
        rot, trans = pose_error(got, want)
        assert rot < 1e-14 and trans < 1e-14
    doc = json.loads(path.read_text())
    for bad in ({**doc, "units": "mm"}, {**doc, "format": "segments"},
                {**doc, "anchor_goal": [0]}):
        path.write_text(json.dumps(bad))
        with pytest.raises(MalformedModelError):
            records.load("constraint_model", path)
