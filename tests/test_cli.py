"""File-to-file checks of every subcommand, including exit codes."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwplan.activity import (load_paired_report, load_report,
                                save_activity_spec)
from screwplan.cli import main
from screwplan.demonstration import (load_segments, save_demonstration,
                                     segment_demonstration)
from screwplan.kinematics import (PANDA_READY, RobotModel, forward_kinematics,
                                  panda_model, save_robot_model)
from screwplan.layouts import (layout_goals, load_goal_sequence,
                               save_layout_spec, yaw_rotation)
from screwplan.planner import load_trajectory, Outcome, PlannerConfig
from screwplan.screws import (compose, pose_error, pose_to_record,
                              save_pose_sequence, Pose)
from screwplan import scenarios as sc


def panda_file():
    ref = resources.files("screwplan.data").joinpath("panda_arm.json")
    with resources.as_file(ref) as path:
        return str(path)


def test_segment_subcommand(tmp_path):
    demo = sc.pick_place_demo(sc.DEMO_PICK, sc.DEMO_PLACE)
    demo_file = tmp_path / "demo.jsonl"
    out = tmp_path / "segments.json"
    save_demonstration(demo, demo_file)
    assert main(["segment", "--demo", str(demo_file),
                 "--rot-tol", "0.02", "--trans-tol", "0.005",
                 "--out", str(out)]) == 0
    got = load_segments(out)
    want = segment_demonstration(demo)
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert (a.start_index, a.end_index) == (b.start_index, b.end_index)
        rot, trans = pose_error(a.end_pose, b.end_pose)
        assert rot < 1e-12 and trans < 1e-12


def test_segment_tolerance_flags_change_the_result(tmp_path):
    rng = np.random.default_rng(3)
    demo = sc.pick_place_demo(sc.DEMO_PICK, sc.DEMO_PLACE,
                              noise=(0.004, 0.01), rng=rng)
    demo_file = tmp_path / "demo.jsonl"
    save_demonstration(demo, demo_file)
    fine, coarse = tmp_path / "fine.json", tmp_path / "coarse.json"
    assert main(["segment", "--demo", str(demo_file), "--rot-tol", "0.02",
                 "--trans-tol", "0.012", "--out", str(coarse)]) == 0
    assert main(["segment", "--demo", str(demo_file), "--rot-tol", "0.002",
                 "--trans-tol", "0.0012", "--out", str(fine)]) == 0
    assert len(load_segments(fine)) > len(load_segments(coarse))


def test_layout_subcommand(tmp_path):
    spec = sc.brick_wall_activity().layout
    spec_file, out = tmp_path / "wall.json", tmp_path / "goals.json"
    save_layout_spec(spec, spec_file)
    assert main(["layout", "--spec", str(spec_file),
                 "--out", str(out)]) == 0
    got = load_goal_sequence(out)
    want = layout_goals(spec)
    assert [(g.i, g.j, g.k) for g in got] == [(g.i, g.j, g.k) for g in want]
    for a, b in zip(got, want):
        rot, trans = pose_error(a.pose, b.pose)
        assert rot < 1e-12 and trans < 1e-12


def test_plan_subcommand_reaches(tmp_path):
    start = forward_kinematics(panda_model(), PANDA_READY)
    goal = Pose(start.rotation, start.translation + [0.0, 0.12, -0.05])
    guiding_file, out = tmp_path / "guiding.json", tmp_path / "traj.jsonl"
    save_pose_sequence([goal], guiding_file)
    q0 = [str(v) for v in PANDA_READY]
    assert main(["plan", "--robot", panda_file(),
                 "--guiding", str(guiding_file), "--q0", *q0,
                 "--out", str(out)]) == 0
    traj = load_trajectory(out)
    assert traj.outcome is Outcome.REACHED
    rot, trans = pose_error(traj.final_pose, goal)
    assert rot < math.radians(0.05) and trans < 1e-4


def test_plan_no_mode2_fails_on_pinched_joint(tmp_path):
    """The baseline flag must reach the planner: a sweep that recovery
    completes jams without it."""
    _, spec = sc.near_limit_scenarios()[0]
    robot_file = tmp_path / "pinched.json"
    doc = {
        "name": "pinched", "units": {"length": "m", "angle": "rad"},
        "twists": spec.robot.twists.tolist(),
        "home_pose": pose_to_record(spec.robot.home_pose),
        "joint_limits": {"lower": spec.robot.lower.tolist(),
                         "upper": spec.robot.upper.tolist()},
        "sew_indices": list(spec.robot.sew_indices),
    }
    robot_file.write_text(json.dumps(doc))

    turn = yaw_rotation(0.5)
    goal = compose(turn, forward_kinematics(panda_model(), PANDA_READY))
    guiding_file = tmp_path / "guiding.json"
    save_pose_sequence([goal], guiding_file)
    q0 = [str(v) for v in PANDA_READY]
    out_base = tmp_path / "base.jsonl"
    out_ours = tmp_path / "ours.jsonl"
    assert main(["plan", "--robot", str(robot_file),
                 "--guiding", str(guiding_file), "--q0", *q0,
                 "--no-mode2", "--out", str(out_base)]) == 1
    assert load_trajectory(out_base).outcome is Outcome.MOTION_PLAN_FAILED
    assert main(["plan", "--robot", str(robot_file),
                 "--guiding", str(guiding_file), "--q0", *q0,
                 "--out", str(out_ours)]) == 0


def one_brick_spec():
    spec = sc.brick_wall_activity(layers=1, per_layer=1)
    return replace(spec, planner_config=PlannerConfig(
        goal_tol=(math.radians(0.01), 2e-5)))


def test_run_activity_subcommand(tmp_path, capsys):
    spec_file = tmp_path / "activity.json"
    out = tmp_path / "report.json"
    save_activity_spec(one_brick_spec(), spec_file)
    assert main(["run-activity", "--spec", str(spec_file),
                 "--out", str(out)]) == 0
    report = load_report(out)
    assert report.bricks_placed_before_failure == 1
    assert (tmp_path / "report.txt").exists()
    assert "placed" in capsys.readouterr().out


def test_run_activity_exit_one_on_failure(tmp_path):
    spec = replace(one_brick_spec(),
                   planner_config=PlannerConfig(max_steps=60))
    spec_file, out = tmp_path / "activity.json", tmp_path / "report.json"
    save_activity_spec(spec, spec_file)
    assert main(["run-activity", "--spec", str(spec_file),
                 "--out", str(out)]) == 1
    report = load_report(out)
    assert report.bricks_placed_before_failure == 0


def test_compare_baseline_subcommand(tmp_path):
    _, spec = sc.near_limit_scenarios()[0]
    spec_file, out = tmp_path / "activity.json", tmp_path / "paired.json"
    save_activity_spec(spec, spec_file)
    assert main(["compare-baseline", "--spec", str(spec_file),
                 "--out", str(out)]) == 0
    paired = load_paired_report(out)
    assert paired.ours.bricks_placed_before_failure == 1
    assert paired.baseline.bricks_placed_before_failure == 0


def test_bad_inputs_exit_two(tmp_path):
    missing = str(tmp_path / "nope.json")
    out = str(tmp_path / "out.json")
    assert main(["segment", "--demo", missing, "--out", out]) == 2
    assert main(["layout", "--spec", missing, "--out", out]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["run-activity", "--spec", str(junk), "--out", out]) == 2


def test_q0_count_must_match_robot_joints(tmp_path, capsys):
    guiding_file, out = tmp_path / "guiding.json", tmp_path / "traj.jsonl"
    save_pose_sequence([forward_kinematics(panda_model(), PANDA_READY)],
                       guiding_file)
    assert main(["plan", "--robot", panda_file(),
                 "--guiding", str(guiding_file), "--q0", "0.0", "0.1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--q0 has 2 values" in err and "has 7 joints" in err
    assert not out.exists()


def test_plan_takes_one_q0_value_per_joint(tmp_path):
    # a yaw joint and two slides; the guiding pose is the start pose,
    # so the plan holds q0
    robot = RobotModel(
        name="slider",
        twists=np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]),
        home_pose=Pose.identity(), lower=np.array([-3.0, -1.0, -1.0]),
        upper=np.array([3.0, 1.0, 1.0]), sew_indices=(0, 1, 2))
    q0 = np.array([0.3, 0.2, -0.1])
    robot_file, guiding_file = tmp_path / "r.json", tmp_path / "g.json"
    out = tmp_path / "traj.jsonl"
    save_robot_model(robot, robot_file)
    save_pose_sequence([forward_kinematics(robot, q0)], guiding_file)
    assert main(["plan", "--robot", str(robot_file),
                 "--guiding", str(guiding_file),
                 "--q0", *[str(v) for v in q0], "--out", str(out)]) == 0
    traj = load_trajectory(out)
    assert traj.outcome is Outcome.REACHED
    assert_allclose(traj.final_q, q0, atol=0.0)
    assert main(["plan", "--robot", str(robot_file),
                 "--guiding", str(guiding_file),
                 "--q0", *[str(v) for v in PANDA_READY],
                 "--out", str(out)]) == 2


def test_plan_moves_a_robot_with_fewer_than_six_joints(tmp_path):
    # the yaw joint and two slides above: a 6 x 3 Jacobian, which
    # needs the left pseudoinverse
    robot = RobotModel(
        name="slider",
        twists=np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]),
        home_pose=Pose.identity(), lower=np.array([-3.0, -1.0, -1.0]),
        upper=np.array([3.0, 1.0, 1.0]), sew_indices=(0, 1, 2))
    q0 = np.array([0.3, 0.2, -0.1])
    goal = forward_kinematics(robot, q0 + 0.2)
    robot_file, guiding_file = tmp_path / "r.json", tmp_path / "g.json"
    out = tmp_path / "traj.jsonl"
    save_robot_model(robot, robot_file)
    save_pose_sequence([goal], guiding_file)
    assert main(["plan", "--robot", str(robot_file),
                 "--guiding", str(guiding_file),
                 "--q0", *[str(v) for v in q0], "--out", str(out)]) == 0
    traj = load_trajectory(out)
    assert traj.outcome is Outcome.REACHED
    assert len(traj.steps) == 793
    rot, trans = pose_error(traj.final_pose, goal)
    assert rot < math.radians(0.05) and trans < 1e-4


def exits_two_with_error(capsys, argv):
    code = main(argv)
    return code == 2 and capsys.readouterr().err.startswith("error:")


def test_malformed_files_exit_two(tmp_path, capsys):
    out = str(tmp_path / "out")
    guiding = tmp_path / "guiding.json"
    guiding.write_text(json.dumps(
        {"format": "pose_sequence", "units": {"length": "m"}}))
    assert exits_two_with_error(capsys, [
        "plan", "--robot", panda_file(), "--guiding", str(guiding),
        "--q0", *[str(v) for v in PANDA_READY], "--out", out])
    array = tmp_path / "array.json"
    array.write_text("[]\n")
    assert exits_two_with_error(capsys, [
        "run-activity", "--spec", str(array), "--out", out])
    assert exits_two_with_error(capsys, [
        "plan", "--robot", panda_file(), "--guiding", str(array),
        "--q0", *[str(v) for v in PANDA_READY], "--out", out])
    layout = tmp_path / "layout.json"
    save_layout_spec(sc.brick_wall_activity().layout, layout)
    doc = json.loads(layout.read_text())
    doc["layers"] = "LAYERS"
    layout.write_text(json.dumps(doc).replace('"LAYERS"', "1e999"))
    assert exits_two_with_error(capsys, [
        "layout", "--spec", str(layout), "--out", out])
    save_layout_spec(sc.brick_wall_activity().layout, layout)
    wall = json.loads(layout.read_text())
    for changes in ({"layers": 2.5}, {"per_layer": "4"},
                    {"layer_offset": [None, 0.0]},
                    {"layer_offset": ["0.05", 0.0]},
                    {"kind": "corner_wall", "corner_index": 2.5}):
        layout.write_text(json.dumps({**wall, **changes}))
        assert exits_two_with_error(capsys, [
            "layout", "--spec", str(layout), "--out", out])
    spec = tmp_path / "spec.json"
    save_activity_spec(sc.brick_wall_activity(), spec)
    doc = json.loads(spec.read_text())
    doc["pick_station"]["restock"] = "RESTOCK"
    for restock in ("2.5", "1e999"):
        spec.write_text(json.dumps(doc).replace('"RESTOCK"', restock))
        assert exits_two_with_error(capsys, [
            "run-activity", "--spec", str(spec), "--out", out])
    save_activity_spec(sc.moving_wall_activity(seed=5), spec)
    moving = json.loads(spec.read_text())
    for section, changes in (("planner", {"mode2_enabled": "false"}),
                             ("planner", {"max_steps": 2.5}),
                             ("planner", {"kappa": "1.0"}),
                             ("pick_station", {"in_base_frame": "false"}),
                             ("base_policy", {"seed": 2.7}),
                             ("base_policy", {"relocate_every": 2.5})):
        doc = json.loads(json.dumps(moving))
        doc[section].update(changes)
        spec.write_text(json.dumps(doc))
        assert exits_two_with_error(capsys, [
            "run-activity", "--spec", str(spec), "--out", out])
