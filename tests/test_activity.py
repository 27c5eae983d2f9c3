"""End-to-end activity runs, placement scoring and report plumbing.

Planner-backed runs are kept small (one to three bricks) so the suite
stays fast; the twelve-brick walls live with the acceptance checks.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from screwplan import records, scenarios
from screwplan.activity import (POSITION_TOL, STRADDLE_TOL, YAW_TOL,
                                ActivityReport, ActivitySpec, FixedBase,
                                FrameGeometry, InvalidActivitySpecError,
                                MalformedReportError, MovingBase,
                                PairedReport, PickStation,
                                activity_spec_from_record,
                                activity_spec_to_record,
                                attached_object_poses, compare_baseline,
                                evaluate_ceiling, evaluate_placement,
                                _station_pose, pick_sequence,
                                report_to_record, run_activity,
                                summary_table, _BOTTOM_CORNERS,
                                _cuboid_corners)
from screwplan.demonstration import ConstraintModel, TaskInstance
from screwplan.kinematics import (InvalidRobotError, forward_kinematics,
                                  panda_model, robot_to_record)
from screwplan.layouts import (InvalidLayoutError, LayoutKind, LayoutSpec,
                               ObjectDims)
from screwplan.planner import (InvalidPlannerConfigError, Outcome,
                               PlannerConfig)
from screwplan.screws import (Pose, compose, inverse, pose_error,
                              quat_to_rot)

from util import python_calls, rand_pose, rand_unit, records_close

BRICK = ObjectDims(0.1016, 0.0508, 0.0508)
TILE = ObjectDims(0.302, 0.302, 0.014)


def rot_x(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def flat(t, yaw=0.0):
    return Pose(rot_z(yaw), np.asarray(t, dtype=float))


# hand grasped from above: palm at the top face, tool z pointing down
GRASP = Pose(rot_x(math.pi), np.array([0.0, 0.0, BRICK.width / 2]))

# a pick, a straight lift, and a place; the lift rides the initial map
DEMO_PICK = flat([0.45, 0.25, BRICK.width / 2])
DEMO_LIFT = flat([0.45, 0.25, BRICK.width / 2 + 0.08])
DEMO_PLACE = flat([0.45, -0.15, BRICK.width / 2])
DEMO_MODEL = ConstraintModel(
    guiding_poses=(DEMO_PICK, DEMO_LIFT, DEMO_PLACE),
    anchor_initial=(0,),
    anchor_goal=(2,),
    source=TaskInstance(initial=DEMO_PICK, goal=DEMO_PLACE))

# tighter servo tolerance keeps the scored object-frame error under the
# 1e-4 m self-consistency bound even across the grasp lever arm
TIGHT = PlannerConfig(goal_tol=(math.radians(0.01), 2e-5))


def one_brick_spec():
    layout = LayoutSpec(kind=LayoutKind.STRAIGHT_WALL, base=DEMO_PLACE,
                        dims=BRICK, layers=1, per_layer=1)
    return ActivitySpec(layout=layout, demo_model=DEMO_MODEL,
                        pick_station=PickStation(base=DEMO_PICK),
                        base_policy=FixedBase(base=flat([0.0, 0.0, 0.0])),
                        grasp_offset=GRASP, planner_config=TIGHT)


def wall3_spec():
    layout = LayoutSpec(
        kind=LayoutKind.STRAIGHT_WALL,
        base=flat([0.5, -0.25, BRICK.width / 2], yaw=math.pi / 2),
        dims=BRICK, layers=1, per_layer=3)
    return ActivitySpec(
        layout=layout, demo_model=DEMO_MODEL,
        pick_station=PickStation(base=flat([0.4, 0.35, BRICK.width / 2])),
        base_policy=FixedBase(base=flat([0.0, 0.0, 0.0])),
        grasp_offset=GRASP)


@pytest.fixture(scope="module")
def one_brick_report():
    return run_activity(one_brick_spec(), keep_trajectories=True)


@pytest.fixture(scope="module")
def wall3_report():
    return run_activity(wall3_spec(), keep_trajectories=True)


# ------------------------------------------------------------- execution


def test_self_consistent_single_brick(one_brick_report):
    rep = one_brick_report
    assert rep.goals_total == 1
    assert rep.bricks_placed_before_failure == 1
    p = rep.placements[0]
    assert p.trajectory_outcome is Outcome.REACHED
    assert p.success
    assert p.position_error < 1e-4
    assert p.yaw_error < math.radians(0.1)


def test_three_brick_wall_all_placed(wall3_report):
    rep = wall3_report
    assert rep.goals_total == 3
    assert rep.bricks_placed_before_failure == 3
    assert [p.index for p in rep.placements] == [(1, 1, 1), (1, 2, 1),
                                                 (1, 3, 1)]
    assert all(p.success for p in rep.placements)
    assert rep.mean_position_error < 0.0075
    assert rep.max_yaw_error < math.radians(2.0)


def test_achieved_pose_is_fk_through_the_grasp(wall3_report):
    spec = wall3_spec()
    model = replace(spec.robot, base_pose=spec.base_policy.base)
    inv_grasp = inverse(spec.grasp_offset)
    for p, traj in zip(wall3_report.placements, wall3_report.trajectories):
        fk = forward_kinematics(model, traj.final_q)
        rot, trans = pose_error(compose(fk, inv_grasp), p.achieved)
        assert rot < 1e-12 and trans < 1e-12


def test_attached_span_runs_pick_to_place(one_brick_report):
    traj = one_brick_report.trajectories[0]
    carried = attached_object_poses(traj, GRASP)
    assert len(carried) == len(traj.steps) - traj.segment_starts[1]
    rot, trans = pose_error(carried[0], DEMO_PICK)
    assert rot < 1e-3 and trans < 1e-3
    rot, trans = pose_error(carried[-1], DEMO_PLACE)
    assert rot < 1e-3 and trans < 1e-3


def test_budget_failure_stops_the_run():
    spec = replace(wall3_spec(), planner_config=PlannerConfig(max_steps=60))
    rep = run_activity(spec)
    assert rep.goals_total == 3
    assert len(rep.placements) == 1
    assert rep.bricks_placed_before_failure == 0
    p = rep.placements[0]
    assert p.trajectory_outcome is Outcome.STEP_BUDGET_EXHAUSTED
    assert not p.success
    assert rep.mean_position_error is None
    assert rep.max_yaw_error is None


def test_moving_base_is_deterministic():
    layout = LayoutSpec(
        kind=LayoutKind.STRAIGHT_WALL,
        base=flat([0.5, -0.05, BRICK.width / 2], yaw=math.pi / 2),
        dims=BRICK, layers=1, per_layer=2)
    spec = ActivitySpec(
        layout=layout, demo_model=DEMO_MODEL,
        pick_station=PickStation(base=flat([0.4, 0.15, BRICK.width / 2])),
        base_policy=MovingBase(initial=flat([0.0, 0.0, 0.0]),
                               step=flat([0.0, 0.1, 0.0]), seed=11,
                               relocate_every=1, radius=0.03),
        grasp_offset=GRASP)
    first = run_activity(spec)
    second = run_activity(spec)
    assert first.bricks_placed_before_failure == 2
    blob1 = json.dumps(report_to_record(first))
    blob2 = json.dumps(report_to_record(second))
    assert blob1 == blob2
    other = run_activity(replace(
        spec, base_policy=replace(spec.base_policy, seed=12)))
    assert json.dumps(report_to_record(other)) != blob1


def test_base_frame_stack_rides_the_platform():
    base = flat([0.05, -0.1, 0.0], yaw=0.2)
    spec = one_brick_spec()
    world = replace(
        spec, base_policy=FixedBase(base=base),
        pick_station=PickStation(base=compose(base, DEMO_PICK)))
    riding = replace(
        spec, base_policy=FixedBase(base=base),
        pick_station=PickStation(base=DEMO_PICK, in_base_frame=True))
    a = run_activity(world)
    b = run_activity(riding)
    assert json.dumps(report_to_record(a)) == json.dumps(report_to_record(b))


def test_restocked_station_cycles_the_pile():
    pile = PickStation(base=flat([0.4, 0.1, BRICK.width / 2]), restock=3)
    picks = pick_sequence(pile, 7, BRICK)
    tops = [p.translation[2] for p in picks]
    w = BRICK.width
    base_z = BRICK.width / 2
    assert tops == pytest.approx(
        [base_z + 2 * w, base_z + w, base_z,
         base_z + 2 * w, base_z + w, base_z, base_z + 2 * w])
    tall = pick_sequence(PickStation(base=flat([0.4, 0.1, base_z])), 4, BRICK)
    assert [p.translation[2] for p in tall] == pytest.approx(
        [base_z + 3 * w, base_z + 2 * w, base_z + w, base_z])


def test_station_lap_wraps_the_walk():
    policy = MovingBase(initial=flat([0.0, 0.0, 0.0]),
                        step=flat([0.0, 0.3, 0.0]), seed=5,
                        relocate_every=3, radius=0.0, yaw_range=0.0,
                        stations_per_lap=2)
    rng = np.random.default_rng(policy.seed)
    ys = [_station_pose(policy, m, rng).translation[1] for m in range(5)]
    assert ys == pytest.approx([0.0, 0.3, 0.0, 0.3, 0.0])


def test_compare_baseline_pairs_the_runs():
    paired = compare_baseline(one_brick_spec())
    assert paired.ours.mode2_enabled
    assert not paired.baseline.mode2_enabled
    assert paired.ours.bricks_placed_before_failure == 1
    assert paired.baseline.bricks_placed_before_failure == 1
    assert (paired.ours.bricks_placed_before_failure
            >= paired.baseline.bricks_placed_before_failure)


# --------------------------------------------------------------- scoring


def test_placement_scoring_thresholds():
    goal = flat([0.5, 0.2, 0.1], yaw=0.3)
    dist, yaw, rot, ok = evaluate_placement(goal, goal)
    assert dist == 0.0 and yaw < 1e-15 and rot < 1e-15 and ok
    off = Pose(goal.rotation, goal.translation + np.array([0.008, 0.0, 0.0]))
    dist, yaw, rot, ok = evaluate_placement(off, goal)
    assert math.isclose(dist, 0.008) and not ok
    yawed = compose(goal, Pose(rot_z(math.radians(1.9)), np.zeros(3)))
    dist, yaw, rot, ok = evaluate_placement(yawed, goal)
    assert math.isclose(yaw, math.radians(1.9), rel_tol=1e-9) and ok
    yawed = compose(goal, Pose(rot_z(math.radians(2.1)), np.zeros(3)))
    assert not evaluate_placement(yawed, goal)[3]


def test_roll_is_recorded_but_not_scored():
    goal = flat([0.5, 0.2, 0.1])
    rolled = compose(goal, Pose(rot_x(math.radians(5.0)), np.zeros(3)))
    dist, yaw, rot, ok = evaluate_placement(rolled, goal)
    assert ok
    assert yaw < 1e-12
    assert math.isclose(rot, math.radians(5.0), rel_tol=1e-9)


# --------------------------------------------------------------- ceiling


CEILING = FrameGeometry(pose=flat([0.0, 0.0, 2.0]), opening_length=0.31,
                        opening_breadth=0.31)


def drop(heights):
    return [Pose(np.eye(3), np.array([0.0, 0.0, z])) for z in heights]


def seated(frame_z, dims):
    return Pose(np.eye(3), np.array([0.0, 0.0, frame_z + dims.width / 2]))


def tilt_insert(dims, tilt=math.radians(20.0), rise_steps=40):
    """Lay-in install: rise tilted through the opening from below,
    flatten above it, lower flat onto the lip."""
    rise = [Pose(rot_x(tilt), np.array([0.0, 0.0, z]))
            for z in np.linspace(1.8, 2.08, rise_steps)]
    flatten = [Pose(rot_x(a), np.array([0.0, 0.0, 2.08]))
               for a in np.linspace(tilt, 0.0, 15)]
    lower = drop(np.linspace(2.08, 2.0 + dims.width / 2, 15))
    return rise + flatten + lower


def test_straight_drop_through_matching_frame():
    poses = drop(np.linspace(2.2, 2.0 + TILE.width / 2, 30))
    assert evaluate_ceiling(poses, TILE, CEILING) is True


def test_tilted_insert_clears_then_seats():
    assert evaluate_ceiling(tilt_insert(TILE), TILE, CEILING) is True


def test_oversize_tile_fails_containment():
    fat = ObjectDims(TILE.length * 1.2, TILE.breadth * 1.2, TILE.width)
    assert evaluate_ceiling(tilt_insert(fat), fat, CEILING) is False


def test_tile_longer_than_opening_fails_even_tilted():
    small = FrameGeometry(pose=flat([0.0, 0.0, 2.0]), opening_length=0.2,
                          opening_breadth=0.2)
    assert evaluate_ceiling(
        tilt_insert(TILE, tilt=math.radians(30.0)), TILE, small) is False


def test_final_seat_checks():
    through = drop(np.linspace(2.2, 2.0 + TILE.width / 2, 30))
    leaning = through + [Pose(rot_x(math.radians(10.0)),
                              np.array([0.0, 0.0, 2.0 + TILE.width / 2]))]
    assert evaluate_ceiling(leaning, TILE, CEILING) is False
    hovering = drop(np.linspace(2.3, 2.05, 30))
    assert evaluate_ceiling(hovering, TILE, CEILING) is False
    shifted = through + [Pose(np.eye(3),
                              np.array([0.2, 0.0, 2.0 + TILE.width / 2]))]
    assert evaluate_ceiling(shifted, TILE, CEILING) is False
    with pytest.raises(InvalidActivitySpecError):
        evaluate_ceiling([], TILE, CEILING)


def test_ceiling_takes_any_iterable_of_poses():
    poses = tilt_insert(TILE)
    assert evaluate_ceiling(iter(poses), TILE, CEILING) is True
    assert evaluate_ceiling(tuple(poses), TILE, CEILING) is True
    assert evaluate_ceiling((p for p in poses), TILE, CEILING) is True
    with pytest.raises(InvalidActivitySpecError, match="at least one"):
        evaluate_ceiling(iter([]), TILE, CEILING)


def test_ceiling_names_a_pose_that_is_not_a_pose():
    poses = tilt_insert(TILE)
    for k, bad in ((0, "pose"), (3, None), (len(poses), np.eye(4))):
        sweep = poses[:k] + [bad] + poses[k:]
        with pytest.raises(InvalidActivitySpecError,
                           match=f"tile pose {k} is not a Pose"):
            evaluate_ceiling(sweep, TILE, CEILING)


# corner indices differing in exactly one sign bit
_EDGES = tuple((i, j) for i in range(8) for j in range(i + 1, 8)
               if bin(i ^ j).count("1") == 1)


def reference_evaluate_ceiling(tile_poses, dims, frame):
    """evaluate_ceiling as a per-pose loop: one checked compose per swept
    pose and scalar arithmetic per crossing edge."""
    if not tile_poses:
        raise InvalidActivitySpecError("need at least one tile pose")
    inv_frame = inverse(frame.pose)
    corners = _cuboid_corners(dims)
    hl, hb = frame.opening_length / 2.0, frame.opening_breadth / 2.0
    for pose in tile_poses:
        pts = compose(inv_frame, pose).apply(corners)
        z = pts[:, 2]
        if not (z.min() < -STRADDLE_TOL and z.max() > STRADDLE_TOL):
            continue
        for i, j in _EDGES:
            zi, zj = z[i], z[j]
            if (zi > 0.0) == (zj > 0.0):
                continue
            t = zi / (zi - zj)
            cut = pts[i] + t * (pts[j] - pts[i])
            if abs(cut[0]) > hl or abs(cut[1]) > hb:
                return False
    final = compose(inv_frame, tile_poses[-1])
    tilt = math.acos(max(-1.0, min(1.0, final.rotation[2, 2])))
    if tilt > YAW_TOL:
        return False
    pts = final.apply(corners)
    if any(abs(pts[i, 2]) > POSITION_TOL for i in _BOTTOM_CORNERS):
        return False
    return abs(final.translation[0]) <= hl and abs(final.translation[1]) <= hb


def about(axis, angle):
    return quat_to_rot(np.append(math.cos(angle / 2),
                                 math.sin(angle / 2) * axis))


def random_sweep(rng, kind):
    """A random frame and tile, and a sweep in world coordinates: up
    through the opening and onto the lip, down onto the lip from above,
    or wholly below the plane.  Tiles are tilted about a random in-plane
    axis, shifted off centre and sized from 0.6 to 1.25 times the
    opening."""
    frame = FrameGeometry(pose=rand_pose(rng),
                          opening_length=rng.uniform(0.2, 0.6),
                          opening_breadth=rng.uniform(0.2, 0.6))
    dims = ObjectDims(frame.opening_length * rng.uniform(0.6, 1.25),
                      frame.opening_breadth * rng.uniform(0.6, 1.25),
                      rng.uniform(0.005, 0.05))
    axis = rand_unit(rng) * [1.0, 1.0, 0.0]
    axis /= np.linalg.norm(axis)
    tilt = rng.choice([0.0, rng.uniform(0.0, math.radians(45.0))])
    shift = np.append(rng.normal(0.0, rng.choice([0.0, 0.01, 0.1]), 2), 0.0)
    # never exactly on the lip: a seat whose bottom corners sit on the
    # plane is a tie that rounding decides (the dyadic test below)
    seat = dims.width / 2 + rng.choice([1e-3, 0.01]) * rng.uniform(-1.0, 1.0)
    n = int(rng.integers(5, 60))
    if kind == "through":
        heights = np.linspace(-rng.uniform(0.05, 0.4), rng.uniform(0.02, 0.2),
                              n)
    elif kind == "above":
        heights = np.linspace(rng.uniform(0.4, 0.8), 0.4, n)
    else:
        heights = np.linspace(-rng.uniform(0.4, 0.8), -0.4, n)
    local = [Pose(about(axis, tilt), shift + [0.0, 0.0, h])
             for h in heights]
    if kind != "below":
        local += [Pose(about(axis, tilt * (1.0 - s)), shift
                       + [0.0, 0.0, heights[-1] + (seat - heights[-1]) * s])
                  for s in np.linspace(0.0, 1.0, 8)[1:]]
    return [compose(frame.pose, p) for p in local], dims, frame


def test_stacked_ceiling_matches_per_pose_loop():
    rng = np.random.default_rng(2021)
    outcomes = {}
    for trial in range(240):
        kind = ("through", "through", "above", "below")[trial % 4]
        poses, dims, frame = random_sweep(rng, kind)
        expected = bool(reference_evaluate_ceiling(poses, dims, frame))
        assert evaluate_ceiling(poses, dims, frame) is expected, trial
        if not expected and reference_evaluate_ceiling(poses[-1:], dims,
                                                       frame):
            kind = "cut"  # fails on the way, though its seat passes
        outcomes[kind, expected] = outcomes.get((kind, expected), 0) + 1
    assert min(outcomes.get((k, v), 0) for k in ("through", "above")
               for v in (True, False)) >= 10, outcomes
    assert outcomes.get(("cut", False), 0) >= 10, outcomes
    assert outcomes.get(("below", False), 0) == 60, outcomes


def test_ceiling_corner_exactly_on_the_plane():
    # dyadic numbers, so the corners land on z == 0 with no rounding:
    # a pose touching the plane from above or below does not straddle
    # it, however far off the opening it sits
    frame = FrameGeometry(pose=flat([0.0, 0.0, 1.0]), opening_length=0.5,
                          opening_breadth=0.5)
    dims = ObjectDims(0.25, 0.25, 0.25)
    seated = flat([0.0, 0.0, 1.125])
    for off in (flat([1.0, 0.0, 1.125]), flat([0.0, -1.0, 0.875])):
        z = compose(inverse(frame.pose), off).apply(_cuboid_corners(dims))
        assert 0.0 in z[:, 2]
        for sweep in ([off, seated], [seated, off, seated]):
            assert reference_evaluate_ceiling(sweep, dims, frame)
            assert evaluate_ceiling(sweep, dims, frame) is True
    assert not reference_evaluate_ceiling([seated, off], dims, frame)
    assert evaluate_ceiling([seated, off], dims, frame) is False


def test_ceiling_corner_within_the_band_counts_as_on_the_plane():
    # a pose whose corners touch the plane up to 1e-12, from above or
    # below, is decided as the one exactly on it: it does not straddle,
    # so its footprint far off the opening is never cut
    frame = FrameGeometry(pose=flat([0.0, 0.0, 1.0]), opening_length=0.5,
                          opening_breadth=0.5)
    dims = ObjectDims(0.25, 0.25, 0.25)
    seated = flat([0.0, 0.0, 1.125])
    for x, y, z in ((1.0, 0.0, 1.125), (0.0, -1.0, 0.875)):
        for nudge in (0.0, 1e-12, -1e-12):
            off = flat([x, y, z + nudge])
            corners = compose(inverse(frame.pose), off).apply(
                _cuboid_corners(dims))[:, 2]
            assert np.abs(corners).min() <= 2e-12
            assert evaluate_ceiling([off, seated], dims, frame) is True
            assert reference_evaluate_ceiling([off, seated], dims, frame)
    # past the band the same footprint straddles and is cut
    off = flat([1.0, 0.0, 1.125 - 1e-6])
    assert evaluate_ceiling([off, seated], dims, frame) is False


@pytest.fixture(scope="module")
def ceiling_carry():
    spec, frame = scenarios.ceiling_tile_activity()
    report = run_activity(spec, keep_trajectories=True)
    return attached_object_poses(report.trajectories[0],
                                 spec.grasp_offset), frame


def test_stacked_ceiling_matches_on_the_planned_carry(ceiling_carry):
    swept, frame = ceiling_carry
    assert len(swept) == 2891
    for dims, fits in ((scenarios.TILE, True),
                       (scenarios.oversized_tile(frame), False)):
        assert reference_evaluate_ceiling(swept, dims, frame) == fits
        assert evaluate_ceiling(swept, dims, frame) is fits


def test_ceiling_call_count_does_not_grow_with_the_sweep():
    fat = ObjectDims(TILE.length * 1.2, TILE.breadth * 1.2, TILE.width)
    for dims in (TILE, fat):  # passes, and fails on a cut
        short, long = (tilt_insert(dims, rise_steps=n) for n in (40, 400))
        evaluate_ceiling(short, dims, CEILING)  # lazy imports, caches
        counts = [python_calls(lambda: evaluate_ceiling(sweep, dims,
                                                        CEILING))[1]
                  for sweep in (short, long, short)]
        assert counts[0] == counts[1] == counts[2], counts


# --------------------------------------------------------------- reports


def test_report_round_trip(tmp_path, wall3_report):
    out = tmp_path / "wall.json"
    records.save("activity_report", wall3_report, out)
    loaded = records.load("activity_report", out)
    # scalars survive exactly; poses go through a quaternion and come
    # back within float ulps
    for a, b in zip(loaded.placements, wall3_report.placements):
        assert a.index == b.index
        assert a.position_error == b.position_error
        assert a.yaw_error == b.yaw_error
        assert a.rotation_error == b.rotation_error
        assert a.success == b.success
        assert a.trajectory_outcome is b.trajectory_outcome
        assert a.steps == b.steps
        for got, want in [(a.goal, b.goal), (a.achieved, b.achieved)]:
            rot, trans = pose_error(got, want)
            assert rot < 1e-14 and trans < 1e-14
    assert loaded.bricks_placed_before_failure == \
        wall3_report.bricks_placed_before_failure
    assert loaded.mean_position_error == wall3_report.mean_position_error
    assert loaded.runtime_seconds == pytest.approx(
        wall3_report.runtime_seconds)
    table = (tmp_path / "wall.txt").read_text()
    assert "placed           3/3" in table
    assert table.count("yes") == 3


def test_emitted_results_are_reproducible(tmp_path, wall3_report):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    records.save("activity_report", wall3_report, a)
    records.save("activity_report", wall3_report, b)
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert json.dumps(da["results"]) == json.dumps(db["results"])
    assert list(da) == ["format", "units", "results", "timing"]


def test_empty_report_round_trip(tmp_path):
    empty = ActivityReport(
        robot="panda", layout_kind="straight_wall", mode2_enabled=True,
        goals_total=0, placements=(), bricks_placed_before_failure=0,
        mean_position_error=None, max_yaw_error=None, runtime_seconds=0.0)
    out = tmp_path / "empty.json"
    records.save("activity_report", empty, out)
    loaded = records.load("activity_report", out)
    assert loaded.placements == ()
    assert loaded.mean_position_error is None
    assert "n/a" in summary_table(loaded)


def test_paired_report_round_trip(tmp_path, wall3_report):
    paired = PairedReport(ours=wall3_report, baseline=wall3_report)
    out = tmp_path / "paired.json"
    records.save("paired_activity_report", paired, out)
    loaded = records.load("paired_activity_report", out)
    assert records_close(report_to_record(loaded.ours),
                         report_to_record(wall3_report))
    assert "ours" in (tmp_path / "paired.txt").read_text()
    (tmp_path / "bad.json").write_text('{"format": "activity_report"}\n')
    with pytest.raises(MalformedReportError):
        records.load("paired_activity_report", tmp_path / "bad.json")


def test_load_report_rejects_noise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    with pytest.raises(MalformedReportError):
        records.load("activity_report", bad)
    bad.write_text('{"format": "other", "results": {}}\n')
    with pytest.raises(MalformedReportError):
        records.load("activity_report", bad)
    bad.write_text('{"format": "activity_report", "results": {}}\n')
    with pytest.raises(MalformedReportError):
        records.load("activity_report", bad)


@pytest.mark.parametrize("where, changes", [
    ("placement", {"success": "false"}),
    ("placement", {"success": 1}),
    ("placement", {"steps": 2.5}),
    ("placement", {"steps": True}),
    ("placement", {"steps": "40"}),
    ("placement", {"position_error": "0.001"}),
    ("placement", {"yaw_error": None}),
    ("placement", {"rotation_error": True}),
    ("results", {"mode2_enabled": "false"}),
    ("results", {"goals_total": 3.5}),
    ("results", {"bricks_placed_before_failure": False}),
    ("results", {"mean_position_error": "0.001"}),
    ("results", {"max_yaw_error": True}),
    ("placement", {"index": "abc"}),
    ("placement", {"index": [1.5]}),
    ("results", {"robot": 7}),
    ("results", {"layout_kind": [1]}),
])
def test_report_record_values_of_the_wrong_type(tmp_path, one_brick_report,
                                                where, changes):
    # each of these used to load, coerced to something else
    out = tmp_path / "report.json"
    records.save("activity_report", one_brick_report, out)
    doc = json.loads(out.read_text())
    records.load("activity_report", out)
    target = doc["results"]
    (target["placements"][0] if where == "placement" else target).update(
        changes)
    out.write_text(json.dumps(doc))
    with pytest.raises(MalformedReportError):
        records.load("activity_report", out)


@pytest.mark.parametrize("results, placement", [
    ({"bricks_placed_before_failure": 7}, {}),
    ({"mean_position_error": 3.0}, {}),
    ({"max_yaw_error": 1.0}, {}),
    ({"goals_total": 0}, {}),
    ({"successes": 0}, {}),
    # a placement 0.5 m off, its mean kept in step, still marked a success
    ({"mean_position_error": 0.5}, {"position_error": 0.5}),
    ({"successes": 0}, {"success": False}),
    ({"bricks_placed_before_failure": 0, "mean_position_error": None,
      "max_yaw_error": None, "successes": 0},
     {"outcome": "motion_plan_failed"}),
])
def test_load_report_refuses_what_contradicts_the_placements(
        tmp_path, one_brick_report, results, placement):
    out = tmp_path / "report.json"
    records.save("activity_report", one_brick_report, out)
    doc = json.loads(out.read_text())
    records.load("activity_report", out)
    doc["results"].update(results)
    doc["results"]["placements"][0].update(placement)
    out.write_text(json.dumps(doc))
    with pytest.raises(MalformedReportError):
        records.load("activity_report", out)


# ------------------------------------------------------------ spec files


def test_activity_spec_round_trip(tmp_path):
    spec = ActivitySpec(
        layout=wall3_spec().layout, demo_model=DEMO_MODEL,
        pick_station=PickStation(base=flat([0.4, 0.35, BRICK.width / 2])),
        base_policy=MovingBase(initial=flat([0.0, 0.0, 0.0]),
                               step=flat([0.0, 0.1, 0.0]), seed=7),
        grasp_offset=GRASP, planner_config=TIGHT,
        q_start=np.linspace(-0.5, 0.5, 7))
    path = tmp_path / "spec.json"
    records.save("activity_spec", spec, path)
    loaded = records.load("activity_spec", path)
    assert records_close(activity_spec_to_record(loaded),
                         activity_spec_to_record(spec))
    assert isinstance(loaded.base_policy, MovingBase)
    assert loaded.base_policy.seed == 7
    assert loaded.robot.name == "panda"


def test_activity_spec_reads_a_robot_model_file(tmp_path, monkeypatch):
    # a relative model_file resolves against the working directory
    arm = replace(panda_model(), name="pinched",
                  upper=panda_model().upper - 0.1)
    (tmp_path / "arms").mkdir()
    records.save("robot", arm, tmp_path / "arms" / "pinched.json")
    doc = activity_spec_to_record(one_brick_spec())
    doc["robot"] = {"model_file": "arms/pinched.json"}
    monkeypatch.chdir(tmp_path)
    loaded = activity_spec_from_record(doc)
    assert robot_to_record(loaded.robot) == robot_to_record(arm)
    (tmp_path / "arms" / "pinched.json").write_text('{"name": "x"}')
    with pytest.raises(InvalidActivitySpecError):
        activity_spec_from_record(doc)
    doc["robot"] = {"model_file": "arms/missing.json"}
    with pytest.raises(OSError):
        activity_spec_from_record(doc)
    doc["robot"] = {"model_file": 3}
    with pytest.raises(InvalidActivitySpecError):
        activity_spec_from_record(doc)


def test_activity_spec_rejects_noise(tmp_path):
    good = activity_spec_to_record(one_brick_spec())
    for breakage in [
            {"format": "other"},
            {"units": {"length": "mm", "angle": "rad"}},
            {"robot": {"name": "ur5"}},
            {"base_policy": {"kind": "teleport"}},
            {"q_start": [0.0, 0.0]},
            {"q_start": good["q_start"][:3] + [math.nan]
             + good["q_start"][4:]},
    ]:
        doc = json.loads(json.dumps(good))
        doc.update(breakage)
        with pytest.raises(InvalidActivitySpecError):
            activity_spec_from_record(doc)
    moving = json.loads(json.dumps(good))
    moving["base_policy"] = {"kind": "moving",
                             "initial": good["base_policy"]["base"],
                             "step": good["base_policy"]["base"]}
    with pytest.raises(InvalidActivitySpecError):
        activity_spec_from_record(moving)
    bad = tmp_path / "spec.json"
    bad.write_text("{broken\n")
    with pytest.raises(InvalidActivitySpecError):
        records.load("activity_spec", bad)


def test_spec_validation():
    with pytest.raises(InvalidActivitySpecError):
        MovingBase(initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]),
                   seed=None)
    with pytest.raises(InvalidActivitySpecError):
        MovingBase(initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]),
                   seed=3, relocate_every=0)
    with pytest.raises(InvalidActivitySpecError):
        MovingBase(initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]),
                   seed=3, radius=-0.1)
    with pytest.raises(InvalidActivitySpecError):
        replace(one_brick_spec(), base_policy="somewhere")
    with pytest.raises(InvalidActivitySpecError):
        replace(one_brick_spec(), q_start=np.zeros(6))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidActivitySpecError):
            replace(one_brick_spec(), q_start=np.full(7, bad))
    for length, breadth in ((0.0, 0.3), (math.nan, math.inf), (0.3, math.inf),
                            ("0.3", 0.3), (0.3, True), (0.3, -0.1)):
        with pytest.raises(InvalidActivitySpecError):
            FrameGeometry(pose=flat([0, 0, 2.0]), opening_length=length,
                          opening_breadth=breadth)
    frame = FrameGeometry(pose=flat([0, 0, 2.0]), opening_length=1,
                          opening_breadth=0.3)
    assert type(frame.opening_length) is float
    for bad in (0, 2.5, math.inf, math.nan, "3", True):
        with pytest.raises(InvalidActivitySpecError):
            PickStation(base=flat([0, 0, 0]), restock=bad)
    assert type(PickStation(base=flat([0, 0, 0]), restock=3.0).restock) is int
    with pytest.raises(InvalidActivitySpecError):
        PickStation(base=flat([0, 0, 0]), in_base_frame="false")
    for field, bad in (("seed", 2.7), ("relocate_every", 2.5),
                       ("stations_per_lap", 1.5), ("radius", "0.05"),
                       ("seed", True), ("relocate_every", True),
                       ("stations_per_lap", True), ("radius", True),
                       ("yaw_range", False), ("radius", math.inf)):
        with pytest.raises(InvalidActivitySpecError):
            MovingBase(initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]),
                       **{"seed": 3, field: bad})
    base = MovingBase(initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]),
                      seed=3.0, relocate_every=2.0, radius=0,
                      stations_per_lap=4.0)
    assert [type(v) for v in (base.seed, base.relocate_every,
                              base.stations_per_lap, base.radius)] == [
        int, int, int, float]


def _pick_station():
    return PickStation(base=DEMO_PICK)


def _fixed_base():
    return FixedBase(base=DEMO_PICK)


def _moving_base():
    return MovingBase(initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]), seed=3)


def _frame():
    return FrameGeometry(flat([0, 0, 2.0]), 0.3, 0.3)


def _layout():
    return one_brick_spec().layout


# (object, field, wrong value, error); a pose field gets a bare matrix
@pytest.mark.parametrize("build, name, bad, error", [
    pytest.param(build, name, bad, error, id=f"{build.__name__}.{name}")
    for build, name, bad, error in (
        (panda_model, "home_pose", np.eye(4), InvalidRobotError),
        (panda_model, "base_pose", np.eye(4), InvalidRobotError),
        (_frame, "pose", np.eye(4), InvalidActivitySpecError),
        (_pick_station, "base", np.eye(4), InvalidActivitySpecError),
        (_fixed_base, "base", np.eye(4), InvalidActivitySpecError),
        (_moving_base, "initial", np.eye(4), InvalidActivitySpecError),
        (_moving_base, "step", np.eye(4), InvalidActivitySpecError),
        (one_brick_spec, "layout", "x", InvalidActivitySpecError),
        (one_brick_spec, "demo_model", "x", InvalidActivitySpecError),
        (one_brick_spec, "pick_station", "x", InvalidActivitySpecError),
        (one_brick_spec, "robot", "x", InvalidActivitySpecError),
        (one_brick_spec, "grasp_offset", np.eye(4),
         InvalidActivitySpecError),
        (one_brick_spec, "planner_config", "x", InvalidActivitySpecError),
        (_layout, "kind", "straight_wall", InvalidLayoutError),
        (_layout, "base", np.eye(4), InvalidLayoutError),
        (_layout, "dims", "x", InvalidLayoutError))])
def test_object_fields_must_be_their_class(build, name, bad, error):
    # each of these used to build, and fail later or not at all
    with pytest.raises(error):
        replace(build(), **{name: bad})


@pytest.mark.parametrize("section, changes", [
    ("planner", {"mode2_enabled": "false"}),
    ("planner", {"mode2_enabled": 0}),
    ("planner", {"max_steps": 2.5}),
    ("planner", {"kappa": "1.0"}),
    ("pick_station", {"in_base_frame": "false"}),
    ("base_policy", {"seed": 2.7}),
    ("base_policy", {"relocate_every": 2.5}),
    ("planner", {"max_steps": True}),
    ("planner", {"kappa": True}),
    ("planner", {"goal_tol": [True, 1e-4]}),
    ("pick_station", {"restock": True}),
    ("base_policy", {"seed": True}),
    ("base_policy", {"radius": False}),
])
def test_spec_record_values_of_the_wrong_type(section, changes):
    # each of these used to load, coerced to something else
    rec = activity_spec_to_record(
        replace(wall3_spec(), base_policy=MovingBase(
            initial=flat([0, 0, 0]), step=flat([0, 0.1, 0]), seed=3)))
    activity_spec_from_record(rec)
    rec[section].update(changes)
    with pytest.raises(InvalidActivitySpecError):
        activity_spec_from_record(rec)


def test_planner_config_stores_numbers_as_their_kind():
    config = PlannerConfig(kappa=2, max_steps=60.0)
    assert type(config.kappa) is float and type(config.max_steps) is int
    for bad in ({"mode2_enabled": "false"}, {"max_steps": 2.5},
                {"kappa": "1.0"}, {"goal_tol": ("0.001", 0.001)},
                {"max_steps": True}, {"kappa": True},
                {"max_steps": True, "kappa": True},
                {"sew_search": (0.01, True)}):
        with pytest.raises(InvalidPlannerConfigError):
            PlannerConfig(**bad)
