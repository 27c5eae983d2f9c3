"""End-to-end activity runs, placement scoring and report plumbing.

Planner-backed runs are kept small (one to three bricks) so the suite
stays fast; the twelve-brick walls live with the acceptance checks.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from screwplan.activity import (ActivityReport, ActivitySpec, FixedBase,
                                FrameGeometry, InvalidActivitySpecError,
                                MalformedReportError, MovingBase,
                                PairedReport, PickStation,
                                activity_spec_from_record,
                                activity_spec_to_record,
                                attached_object_poses, compare_baseline,
                                emit_paired_report, emit_report,
                                evaluate_ceiling, evaluate_placement,
                                _station_pose, load_activity_spec,
                                load_paired_report, load_report,
                                pick_sequence, report_to_record,
                                run_activity, save_activity_spec,
                                summary_table)
from screwplan.demonstration import ConstraintModel, TaskInstance
from screwplan.kinematics import forward_kinematics, panda_model
from screwplan.layouts import LayoutKind, LayoutSpec, ObjectDims
from screwplan.planner import (InvalidPlannerConfigError, Outcome,
                               PlannerConfig)
from screwplan.screws import Pose, compose, inverse, pose_error

from util import records_close

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


def tilt_insert(dims, tilt=math.radians(20.0)):
    """Lay-in install: rise tilted through the opening from below,
    flatten above it, lower flat onto the lip."""
    rise = [Pose(rot_x(tilt), np.array([0.0, 0.0, z]))
            for z in np.linspace(1.8, 2.08, 40)]
    flatten = [Pose(rot_x(a), np.array([0.0, 0.0, 2.08]))
               for a in np.linspace(tilt, 0.0, 15)]
    lower = drop(np.linspace(2.08, 2.0 + dims.width / 2, 15))
    return rise + flatten + lower


def test_straight_drop_through_matching_frame():
    poses = drop(np.linspace(2.2, 2.0 + TILE.width / 2, 30))
    assert evaluate_ceiling(poses, TILE, CEILING)


def test_tilted_insert_clears_then_seats():
    assert evaluate_ceiling(tilt_insert(TILE), TILE, CEILING)


def test_oversize_tile_fails_containment():
    fat = ObjectDims(TILE.length * 1.2, TILE.breadth * 1.2, TILE.width)
    assert not evaluate_ceiling(tilt_insert(fat), fat, CEILING)


def test_tile_longer_than_opening_fails_even_tilted():
    small = FrameGeometry(pose=flat([0.0, 0.0, 2.0]), opening_length=0.2,
                          opening_breadth=0.2)
    assert not evaluate_ceiling(
        tilt_insert(TILE, tilt=math.radians(30.0)), TILE, small)


def test_final_seat_checks():
    through = drop(np.linspace(2.2, 2.0 + TILE.width / 2, 30))
    leaning = through + [Pose(rot_x(math.radians(10.0)),
                              np.array([0.0, 0.0, 2.0 + TILE.width / 2]))]
    assert not evaluate_ceiling(leaning, TILE, CEILING)
    hovering = drop(np.linspace(2.3, 2.05, 30))
    assert not evaluate_ceiling(hovering, TILE, CEILING)
    shifted = through + [Pose(np.eye(3),
                              np.array([0.2, 0.0, 2.0 + TILE.width / 2]))]
    assert not evaluate_ceiling(shifted, TILE, CEILING)
    with pytest.raises(InvalidActivitySpecError):
        evaluate_ceiling([], TILE, CEILING)


# --------------------------------------------------------------- reports


def test_report_round_trip(tmp_path, wall3_report):
    out = tmp_path / "wall.json"
    emit_report(wall3_report, out)
    loaded = load_report(out)
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
    emit_report(wall3_report, a)
    emit_report(wall3_report, b)
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert json.dumps(da["results"]) == json.dumps(db["results"])
    assert list(da) == ["format", "units", "results", "timing"]


def test_empty_report_round_trip(tmp_path):
    empty = ActivityReport(
        robot="panda", layout_kind="straight_wall", mode2_enabled=True,
        goals_total=0, placements=(), bricks_placed_before_failure=0,
        mean_position_error=None, max_yaw_error=None, runtime_seconds=0.0)
    out = tmp_path / "empty.json"
    emit_report(empty, out)
    loaded = load_report(out)
    assert loaded.placements == ()
    assert loaded.mean_position_error is None
    assert "n/a" in summary_table(loaded)


def test_paired_report_round_trip(tmp_path, wall3_report):
    paired = PairedReport(ours=wall3_report, baseline=wall3_report)
    out = tmp_path / "paired.json"
    emit_paired_report(paired, out)
    loaded = load_paired_report(out)
    assert records_close(report_to_record(loaded.ours),
                         report_to_record(wall3_report))
    assert "ours" in (tmp_path / "paired.txt").read_text()
    (tmp_path / "bad.json").write_text('{"format": "activity_report"}\n')
    with pytest.raises(MalformedReportError):
        load_paired_report(tmp_path / "bad.json")


def test_load_report_rejects_noise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    with pytest.raises(MalformedReportError):
        load_report(bad)
    bad.write_text('{"format": "other", "results": {}}\n')
    with pytest.raises(MalformedReportError):
        load_report(bad)
    bad.write_text('{"format": "activity_report", "results": {}}\n')
    with pytest.raises(MalformedReportError):
        load_report(bad)


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
    emit_report(one_brick_report, out)
    doc = json.loads(out.read_text())
    load_report(out)
    target = doc["results"]
    (target["placements"][0] if where == "placement" else target).update(
        changes)
    out.write_text(json.dumps(doc))
    with pytest.raises(MalformedReportError):
        load_report(out)


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
    save_activity_spec(spec, path)
    loaded = load_activity_spec(path)
    assert records_close(activity_spec_to_record(loaded),
                         activity_spec_to_record(spec))
    assert isinstance(loaded.base_policy, MovingBase)
    assert loaded.base_policy.seed == 7
    assert loaded.robot.name == "panda"


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
        load_activity_spec(bad)


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
    with pytest.raises(InvalidActivitySpecError):
        FrameGeometry(pose=flat([0, 0, 2.0]), opening_length=0.0,
                      opening_breadth=0.3)
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
