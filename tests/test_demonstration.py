"""Demonstration loading, greedy constant-screw segmentation, guiding-pose
extraction and transfer."""

import json
import math
import re
import sys

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
    _relative_log,
    compose,
    exp_screw,
    inverse,
    pose_error,
    quat_to_rot,
    sclerp_path,
    unit_twist,
)
from util import (demo_from_poses, pinned_counts, pose_errors, python_calls,
                  rand_pose, rand_unit)

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
    dwell = demo_from_poses(times, poses, demo.object_id)
    segs = segment_demonstration(dwell)
    assert len(segs) == 1


def test_degenerate_demo_rejected():
    g = Pose.identity()
    demo = demo_from_poses(np.array([0.0, 0.1, 0.2]), (g, g, g), "b")
    with pytest.raises(DegenerateDemonstrationError):
        segment_demonstration(demo)


def test_segmentation_frame_equivariance():
    rng = np.random.default_rng(22)
    demo = synthesize_demonstration(pick_place_keys(), samples_per_leg=40)
    h = rand_pose(rng)
    moved = demo_from_poses(demo.times,
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
    poses = list(demo.poses)
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
        cases.append((demo_from_poses(0.02 * np.arange(len(poses)),
                                      tuple(poses), "dwell"), tol))
        # 2 and 3 samples
        short = tuple(rand_pose(rng) for _ in range(2 + i % 2))
        cases.append((demo_from_poses(0.02 * np.arange(len(short)), short,
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
        poses = list(demo.poses)
        n = len(poses)
        Rs = np.stack([p.rotation for p in poses])
        ps = np.stack([p.translation for p in poses])
        cum = _arc_length(poses)
        q = np.array([_quat_pivot(R) for R in Rs.tolist()]).T
        q /= np.linalg.norm(q, axis=0)
        for a in sorted({0, n // 2, max(n - 3, 0)}):
            ends = [e for e in range(a + 2, n) if cum[e] > cum[a]]
            if not ends:
                continue
            # every window from the start on one grid: a row per window,
            # its own interior first
            rot, trans = demonstration._Windows(
                Rs, ps, q, cum, a, ends[0]).errors(0, len(ends))
            assert rot.shape == trans.shape == (len(ends), n - a - 2)
            for row, e in enumerate(ends):
                want_rot, want_trans = _chord_errors(poses, Rs, ps, a, e,
                                                     cum)
                worst = max(worst,
                            np.abs(rot[row, :e - a - 1] - want_rot).max(),
                            np.abs(trans[row, :e - a - 1] - want_trans).max())
    assert worst <= 1e-12


def test_split_stops_at_the_first_misfit():
    # x positions along a line that backtracks once: the window 0..3
    # misfits (sample 2 sits 0.19 m off its arc-length place), the longer
    # window 0..4 fits (worst 0.1 m), and the turn at sample 6 breaks
    # every window past it
    xs = ((0, 0), (1, 0), (2, 0), (1.9, 0), (4, 0), (5.8, 0), (5.8, 2),
          (5.8, 4))
    poses = tuple(Pose(np.eye(3), np.array([x, y, 0.0])) for x, y in xs)
    demo = demo_from_poses(0.02 * np.arange(len(poses)), poses,
                           "backtrack")
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


def test_run_size_is_only_a_speed_setting(monkeypatch):
    # one window per run, grids of 64 cells, the default and one run
    # per segment start split every reference case alike
    cases = _reference_cases(np.random.default_rng(24))
    want = [_spans(segment_demonstration(demo, tol)) for demo, tol in cases]
    errors, grids = demonstration._Windows.errors, []

    def recorded(self, lo, hi):
        out = errors(self, lo, hi)
        grids.append(out[0].shape)
        return out

    monkeypatch.setattr(demonstration._Windows, "errors", recorded)
    for cells in (1, 64, sys.maxsize):
        grids.clear()
        monkeypatch.setattr(demonstration, "_RUN_CELLS", cells)
        assert [_spans(segment_demonstration(demo, tol))
                for demo, tol in cases] == want
        assert all(rows == 1 or rows * cols <= cells for rows, cols in grids)
        if cells == 1:
            assert {rows for rows, _ in grids} == {1}
        if cells == sys.maxsize:
            # one run reaches the misfit or the last sample
            assert len(grids) <= sum(map(len, want))


def _chord_stacks(rng):
    """(R, p) stacks whose first sample starts a window to each of the
    others: random ends, ends near pi and near the identity about each
    axis (either side of the series' 1e-4 and of ROT_IDENTITY_TOL), pure
    translations down to a subnormal one and the zero chord, and a noisy
    demonstration's samples."""
    start = rand_pose(rng)
    ends = [start] + [rand_pose(rng) for _ in range(100)]
    for axis in (*np.eye(3), rand_unit(rng)):
        for angle in (math.pi, math.pi - 1e-9, 3.0, 2e-4, 1e-4, 5e-5, 1e-6,
                      1e-8, 1e-12, 0.0):
            rel = quat_to_rot(np.append(math.cos(angle / 2),
                                        math.sin(angle / 2) * axis))
            ends += [compose(Pose(rel, t), start)
                     for t in (rng.uniform(-1.0, 1.0, 3), np.zeros(3))]
    stacks = [ends]
    eye = Pose.identity()
    stacks.append([eye] + [Pose(np.eye(3), t) for t in (
        np.zeros(3), np.array([5e-324, 0.0, 0.0]),
        np.array([1e-310, -2e-310, 3e-311]), np.array([0.0, 0.3, -0.4]))])
    noisy = synthesize_demonstration(
        pick_place_keys(rand_pose(rng)), samples_per_leg=30,
        noise=(math.radians(0.2), 0.001), rng=rng)
    stacks.append(list(noisy.poses))
    return [(np.array([g.rotation for g in poses]),
             np.array([g.translation for g in poses])) for poses in stacks]


def test_stacked_chords_match_one_window_at_a_time():
    # _relative_log's arithmetic over the stack, to rounding: the pivot
    # quaternion and its branches row by row
    for R, p in _chord_stacks(np.random.default_rng(28)):
        for a in (0, 1):
            v, w, theta, refused = demonstration._chords(R, p, a, a + 1)
            assert not refused.any()
            for e in range(a + 1, len(R)):
                xi, th = _relative_log(R[e].tolist(), p[e].tolist(),
                                       R[a].tolist(), p[a].tolist())
                want = np.append(xi, th)
                k = e - a - 1
                got = np.concatenate([v[:, k], w[:, k], [theta[k]]])
                assert np.all(np.abs(got - want)
                              <= 1e-15 * np.maximum(1.0, np.abs(want))), e


def test_refused_chord_raises_only_when_its_window_is_scored():
    # a start and an end each off orthonormal by 8e-10, which a sample
    # may be, make a relative rotation off by 1.6e-9, which
    # _relative_log refuses
    demo = synthesize_demonstration(pick_place_keys(), samples_per_leg=50)
    assert _spans(segment_demonstration(demo)) == \
        [(0, 50), (50, 102), (102, 150)]

    def scaled(*samples):
        R = demo.rotation.copy()
        R[list(samples)] *= 1.0 + 4e-10
        return Demonstration(demo.times, R, demo.translation, "scaled")

    # window (0, 52) lies past the first misfit, (0, 51)
    past = scaled(0, 52)
    with pytest.raises(ValueError, match="not orthonormal"):
        _relative_log(past.rotation[52].tolist(),
                      past.translation[52].tolist(),
                      past.rotation[0].tolist(), past.translation[0].tolist())
    assert _spans(segment_demonstration(past)) == \
        [(0, 50), (50, 102), (102, 150)]
    # window (0, 20) is scored: the scalar chord's own error
    inside = scaled(0, 20)
    with pytest.raises(ValueError) as want:
        _relative_log(inside.rotation[20].tolist(),
                      inside.translation[20].tolist(),
                      inside.rotation[0].tolist(),
                      inside.translation[0].tolist())
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        segment_demonstration(inside)


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
def test_segmentation_window_call_count():
    # Python-level calls per segmentation of the pick-place demo, the
    # per-sample set-up (arc length, quaternions) included.  A scalar
    # log per window, with runs packed by samples, took 1491, 3397 and
    # 9866; chord tables per segment start and one grid per run of
    # windows keep each to at most half of that
    for per_leg, ends, before in ((50, [50, 102, 150], 1491),
                                  (100, [100, 204, 300], 3397),
                                  (200, [200, 409, 600], 9866)):
        demo = synthesize_demonstration(pick_place_keys(),
                                        samples_per_leg=per_leg)
        segs, calls = python_calls(lambda: segment_demonstration(demo))
        assert [s.end_index for s in segs] == ends
        assert calls <= before // 2, (per_leg, calls)


def test_pose_count_does_not_grow_with_the_samples():
    # synthesis and segmentation work on the stacked samples: the Pose
    # objects they build are the four boundary poses and, per segment,
    # the two its screw is derived through
    keys = pick_place_keys()
    counts = {}
    for per_leg in (25, 50, 100):
        segs, counts[per_leg] = python_calls(
            lambda: segment_demonstration(synthesize_demonstration(
                keys, samples_per_leg=[per_leg, per_leg, per_leg // 4])),
            only=Pose.__post_init__.__code__)
        assert len(segs) == 3
    assert counts[25] == counts[50] == counts[100] == 10, counts


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


def _edge_scale():
    """The largest a for which diag(a, 1, 1) passes the orthonormality
    check, a * a - 1.0 <= 1e-9; the next float up fails it."""
    a = math.sqrt(1.0 + 1e-9)
    while a * a - 1.0 > 1e-9:
        a = math.nextafter(a, 0.0)
    while math.nextafter(a, 2.0) ** 2 - 1.0 <= 1e-9:
        a = math.nextafter(a, 2.0)
    return a


_EDGE = _edge_scale()


@st.composite
def _sample_stacks(draw):
    """Stacked rotations and translations of 2-6 samples, each a pose or
    one broken in some way: a non-finite entry, a deviation near the
    orthonormality tolerance on either side, or a reflection."""
    n = draw(st.integers(2, 6))
    poses = draw(st.lists(_poses, min_size=n, max_size=n))
    R = np.array([g.rotation for g in poses])
    p = np.array([g.translation for g in poses])
    entry = st.tuples(st.integers(0, 2), st.integers(0, 2))
    for k in range(n):
        kind = draw(st.sampled_from(
            ("pose", "pose", "scale", "entry", "edge", "past edge",
             "reflection", "rotation", "translation")))
        if kind == "scale":
            R[k] *= 1.0 + draw(st.floats(4.9e-10, 5.1e-10))
        elif kind == "entry":
            R[k][draw(entry)] += draw(st.floats(-2e-9, 2e-9))
        elif kind in ("edge", "past edge"):
            a = _EDGE if kind == "edge" else math.nextafter(_EDGE, 2.0)
            R[k] = np.diag([a, 1.0, 1.0])
        elif kind == "reflection":
            R[k] = -R[k]
        elif kind == "rotation":
            R[k][draw(entry)] = draw(st.sampled_from(
                (math.nan, math.inf, -math.inf)))
        elif kind == "translation":
            p[k, draw(st.integers(0, 2))] = draw(st.sampled_from(
                (math.nan, math.inf, -math.inf)))
    return R, p


@settings(max_examples=300, deadline=None)
@given(_sample_stacks())
def test_demonstration_refuses_exactly_what_pose_refuses(stacks):
    # the bulk check against one Pose per sample: the same samples
    # refused, the first of them named, with Pose's reason
    R, p = stacks
    refused = []
    for k in range(len(R)):
        try:
            Pose(R[k], p[k])
        except ValueError as e:
            refused.append(f"sample {k}: {e}")
    times = 0.02 * np.arange(len(R))
    if not refused:
        demo = Demonstration(times, R, p, "o")
        assert np.array_equal(demo.rotation, R)
        assert np.array_equal(demo.translation, p)
        return
    with pytest.raises(MalformedDemonstrationError) as info:
        Demonstration(times, R, p, "o")
    assert str(info.value) == refused[0]


def test_demonstration_check_at_its_edges():
    eye = np.eye(3)
    p = np.zeros((3, 3))
    times = [0.0, 0.1, 0.2]
    Demonstration(times, [eye, np.diag([_EDGE, 1.0, 1.0]), eye], p, "o")
    past = np.diag([math.nextafter(_EDGE, 2.0), 1.0, 1.0])
    for R, k, reason in (([eye, eye, past], 2, "deviation"),
                         ([eye, -eye, past], 1, "deviation"),
                         ([eye, np.diag([1.0, 1.0, -1.0]), eye], 1,
                          "deviation"),
                         ([eye, eye, np.full((3, 3), math.nan)], 2,
                          "non-finite")):
        with pytest.raises(MalformedDemonstrationError,
                           match=f"sample {k}: .*{reason}"):
            Demonstration(times, R, p, "o")
    with pytest.raises(MalformedDemonstrationError,
                       match="sample 0: pose translation must be finite"):
        Demonstration(times, [eye] * 3, [[math.inf, 0.0, 0.0]] * 3, "o")


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
        demo_from_poses(np.array([0.0]), (g,), "b")
    with pytest.raises(ValueError):
        demo_from_poses(np.array([0.0, 0.0]), (g, h), "b")
    # a Python caller gets the reader rule too: no strings for times,
    # no number for the object id
    for times, object_id in ((["0.0", "0.02"], "b"), ([0.0, True], "b"),
                             ([0.0, math.nan], "b"), ([[0.0, 0.02]], "b"),
                             (np.array(["0.0", "0.02"]), "b"),
                             (np.array([0.0, math.inf]), "b"),
                             (np.array([[0.0, 0.02]]), "b"),
                             ([0.0, 0.02], 3)):
        with pytest.raises(MalformedDemonstrationError):
            demo_from_poses(times, (g, h), object_id)
    # samples must be poses: a stack of 3x3 rotations and one of
    # 3-vectors, a row each
    R = np.stack([g.rotation, h.rotation])
    p = np.stack([g.translation, h.translation])
    for rotation, translation in ((("x", "y"), p), ([np.eye(4)] * 2, p),
                                  (R, None), (R, p[:, :2]), (R[0], p),
                                  (R[:1], p), (R.astype(str), p),
                                  (R, p.astype(bool)), ([R[0], R[1][:2]], p),
                                  (R, [[0.0, 0.0, None]] * 2)):
        with pytest.raises(MalformedDemonstrationError,
                           match="rotation|translation|poses"):
            Demonstration([0.0, 0.02], rotation, translation, "o")
    for initial, goal in (("a", 3), (g, None), (np.eye(4), h)):
        with pytest.raises(DemonstrationError):
            TaskInstance(initial, goal)


def test_demonstration_holds_read_only_copies_and_a_pose_view():
    keys = pick_place_keys()
    demo = synthesize_demonstration(keys, samples_per_leg=5)
    R, p = demo.rotation.copy(), demo.translation.copy()
    copy = Demonstration(list(demo.times), R, p, "o")
    R[0] = 0.0
    assert np.array_equal(copy.rotation, demo.rotation)
    for a in (copy.times, copy.rotation, copy.translation):
        with pytest.raises(ValueError):
            a[0] = 1.0
    view = demo.poses
    assert len(view) == len(demo.times) == 16
    for k in (0, 7, -1):
        assert np.array_equal(view[k].rotation, demo.rotation[k])
        assert np.array_equal(view[k].translation, demo.translation[k])
    assert [g.translation.tolist() for g in view] == \
        demo.translation.tolist()
    with pytest.raises(IndexError):
        view[16]
    for got, want in ((view[0], keys[0]), (view[-1], keys[-1])):
        rot, trans = pose_error(got, want)
        assert rot < 1e-12 and trans < 1e-12


def test_demonstrations_compare_by_identity():
    # arrays make no truth value: a demonstration equals itself only and
    # hashes, as a JointTrajectory does
    a, b = (synthesize_demonstration(pick_place_keys(), samples_per_leg=5)
            for _ in range(2))
    assert np.array_equal(a.rotation, b.rotation)
    assert a == a and a != b
    assert len({a, b, a}) == 2


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
