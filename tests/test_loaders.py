"""Every loader against a file the package wrote: it reads back what it
wrote, and a randomly broken copy either loads or raises the error the
loader documents, never a bare KeyError, TypeError or JSONDecodeError."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from screwplan import scenarios as sc
from screwplan.activity import (ActivityReport, InvalidActivitySpecError,
                                MalformedReportError, PairedReport,
                                PlacementResult, emit_paired_report,
                                emit_report, load_activity_spec,
                                load_paired_report, load_report,
                                save_activity_spec)
from screwplan.demonstration import (DEFAULT_FIT_TOL, DemonstrationError,
                                     MalformedDemonstrationError,
                                     MalformedModelError,
                                     load_constraint_model,
                                     load_demonstration, load_segments,
                                     save_constraint_model,
                                     save_demonstration, save_segments,
                                     segment_demonstration)
from screwplan.kinematics import (PANDA_READY, InvalidRobotError,
                                  forward_kinematics, load_robot_model,
                                  panda_model, save_robot_model)
from screwplan.layouts import (InvalidLayoutError, layout_goals,
                               load_goal_sequence, load_layout_spec,
                               save_goal_sequence, save_layout_spec)
from screwplan.planner import (InvalidTrajectoryError, JointTrajectory,
                               Mode, Outcome, TrajectoryStep,
                               load_trajectory, save_trajectory)
from screwplan.screws import load_pose_sequence, save_pose_sequence


def _demo():
    return sc.pick_place_demo(sc.DEMO_PICK, sc.DEMO_PLACE,
                              samples_per_leg=4)


def _trajectory():
    model = panda_model()
    qs = PANDA_READY + np.linspace(0.0, 0.03, 3)[:, None]
    poses = [forward_kinematics(model, q) for q in qs]
    return JointTrajectory(
        steps=[TrajectoryStep(q, mode, pose.rotation, pose.translation,
                              damped)
               for q, pose, mode, damped in zip(
                   qs, poses, (Mode.MODE1, Mode.MODE2, Mode.MODE1),
                   (False, True, False))],
        outcome=Outcome.STEP_BUDGET_EXHAUSTED, segment_starts=[0, 1])


def _spec():
    _, spec = sc.near_limit_scenarios()[0]
    moving = sc.moving_wall_activity(3, layers=1, per_layer=1)
    return replace(spec, base_policy=moving.base_policy)


def _report(mode2, steps):
    goal = sc.flat_pose([0.5, 0.1, 0.02], yaw=0.3)
    placements = tuple(PlacementResult(
        index=(1, j, 1), goal=goal, achieved=sc.flat_pose([0.5, 0.1, 0.021]),
        position_error=0.001 * j, yaw_error=0.3, rotation_error=0.3,
        success=j == 1, trajectory_outcome=outcome, steps=steps + j)
        for j, outcome in ((1, Outcome.REACHED),
                           (2, Outcome.MOTION_PLAN_FAILED)))
    return ActivityReport(
        robot="panda", layout_kind="straight_wall", mode2_enabled=mode2,
        goals_total=3, placements=placements,
        bricks_placed_before_failure=1, mean_position_error=0.001,
        max_yaw_error=0.3, runtime_seconds=1.5)


# name -> (write the file, load, save, the error the loader documents);
# the writers pass what the loaded objects do not carry (segments'
# object id and tolerances, a trajectory's robot name)
LOADERS = {
    "pose_sequence": (
        lambda p: save_pose_sequence(_demo().poses[::4], p),
        load_pose_sequence, save_pose_sequence, ValueError),
    "demonstration": (
        lambda p: save_demonstration(_demo(), p),
        load_demonstration, save_demonstration, DemonstrationError),
    "segments": (
        lambda p: save_segments(segment_demonstration(_demo()), p,
                                "brick", DEFAULT_FIT_TOL),
        load_segments,
        lambda x, p: save_segments(x, p, "brick", DEFAULT_FIT_TOL),
        MalformedDemonstrationError),
    "constraint_model": (
        lambda p: save_constraint_model(sc.model_from_demo(_demo()), p),
        load_constraint_model, save_constraint_model, MalformedModelError),
    "layout_spec": (
        lambda p: save_layout_spec(sc.brick_wall_activity().layout, p),
        load_layout_spec, save_layout_spec, InvalidLayoutError),
    "goal_sequence": (
        lambda p: save_goal_sequence(
            layout_goals(sc.brick_wall_activity(2, 2).layout), p),
        load_goal_sequence, save_goal_sequence, InvalidLayoutError),
    "robot": (
        lambda p: save_robot_model(panda_model(), p),
        load_robot_model, save_robot_model, InvalidRobotError),
    "trajectory": (
        lambda p: save_trajectory(_trajectory(), p, robot="panda"),
        load_trajectory,
        lambda x, p: save_trajectory(x, p, robot="panda"),
        InvalidTrajectoryError),
    "activity_spec": (
        lambda p: save_activity_spec(_spec(), p),
        load_activity_spec, save_activity_spec, InvalidActivitySpecError),
    "activity_report": (
        lambda p: emit_report(_report(True, 40), p),
        load_report, emit_report, MalformedReportError),
    "paired_activity_report": (
        lambda p: emit_paired_report(
            PairedReport(_report(True, 40), _report(False, 7)), p),
        load_paired_report, emit_paired_report, MalformedReportError),
}
LINE_DELIMITED = ("demonstration", "trajectory")
REPLACEMENTS = (None, "x", [], {}, math.inf, [[0.0, 1.0], [2.0]])


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """name -> the path of a file the package wrote."""
    root = tmp_path_factory.mktemp("written")
    out = {}
    for name, (write, *_) in LOADERS.items():
        out[name] = root / name / f"{name}.json"
        out[name].parent.mkdir()
        write(out[name])
    return out


def parse(path, name):
    """The file as one JSON value: a list of records for line files."""
    text = path.read_text()
    if name in LINE_DELIMITED:
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def dump(doc, path, name):
    if name in LINE_DELIMITED:
        path.write_text("".join(json.dumps(r) + "\n" for r in doc))
    else:
        path.write_text(json.dumps(doc))


def paths(doc, at=()):
    """Every (path, container is a dict) to a value below doc."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield at + (key,), isinstance(doc, dict)
        yield from paths(value, at + (key,))


def documented(exc, error):
    """exc is the loader's error: that class itself or one of the
    package's subclasses of it."""
    return isinstance(exc, error) and (
        type(exc) is error or type(exc).__module__.startswith("screwplan."))


_QUATERNION = re.compile(r'"q": \[[^\]]*\]')


@pytest.mark.parametrize("name", LOADERS)
def test_save_of_load_reproduces_the_file(name, written, tmp_path):
    _, load, save, _ = LOADERS[name]
    src = written[name]
    again = tmp_path / src.name
    save(load(src), again)
    # quat_to_rot then rot_to_quat is not the identity in floating point:
    # quaternions come back within a few ulp, every other byte is equal
    want, got = src.read_text(), again.read_text()
    assert _QUATERNION.sub("q", got) == _QUATERNION.sub("q", want)
    for a, b in zip(_QUATERNION.findall(got), _QUATERNION.findall(want),
                    strict=True):
        assert np.allclose(json.loads(a[5:]), json.loads(b[5:]),
                           rtol=0.0, atol=1e-15)
    table = src.with_suffix(".txt")
    if table.exists():
        assert again.with_suffix(".txt").read_bytes() == table.read_bytes()


@pytest.mark.parametrize("name", LOADERS)
def test_wrong_units_raise_the_loaders_error(name, written, tmp_path):
    _, load, _, error = LOADERS[name]
    doc = parse(written[name], name)
    top = doc[0] if name in LINE_DELIMITED else doc
    top["units"] = ("mm" if isinstance(top["units"], str)
                    else {**top["units"], "length": "mm"})
    dump(doc, tmp_path / "bad.json", name)
    with pytest.raises(error, match="expected units"):
        load(tmp_path / "bad.json")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
def test_broken_files_raise_only_the_documented_error(name, written,
                                                      tmp_path, data):
    _, load, _, error = LOADERS[name]
    doc = parse(written[name], name)
    kind = data.draw(st.sampled_from(("delete", "replace", "list")))
    if kind == "list":
        if name in LINE_DELIMITED:
            n = data.draw(st.integers(0, len(doc) - 1))
            doc[n] = [doc[n]]
        else:
            doc = [doc]
    else:
        where = [p for p, in_dict in paths(doc)
                 if in_dict or kind == "replace"]
        path = data.draw(st.sampled_from(where))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS))
    bad = tmp_path / "bad.json"
    dump(doc, bad, name)
    try:
        load(bad)
    except Exception as exc:
        assert documented(exc, error), repr(exc)


def test_malformed_fields_name_the_problem(written, tmp_path):
    bad = tmp_path / "bad.json"
    doc = parse(written["segments"], "segments")
    del doc["segments"][1]["start_pose"]
    dump(doc, bad, "segments")
    with pytest.raises(MalformedDemonstrationError,
                       match="missing field 'start_pose'"):
        load_segments(bad)
    doc = parse(written["goal_sequence"], "goal_sequence")
    doc["goals"][0]["index"] = [1]
    dump(doc, bad, "goal_sequence")
    with pytest.raises(InvalidLayoutError):
        load_goal_sequence(bad)
    doc = parse(written["trajectory"], "trajectory")
    del doc[0]["outcome"]
    dump(doc, bad, "trajectory")
    with pytest.raises(InvalidTrajectoryError,
                       match="bad.json line 1: missing field 'outcome'"):
        load_trajectory(bad)
    bad.write_text("{not json\n" + written["trajectory"].read_text())
    with pytest.raises(InvalidTrajectoryError,
                       match="bad.json line 1: not valid JSON"):
        load_trajectory(bad)


def test_trajectory_steps_share_a_joint_count(written, tmp_path):
    # a step cut to 3 of 7 joint values used to load as a (3,) step
    bad = tmp_path / "bad.json"
    doc = parse(written["trajectory"], "trajectory")
    doc[2]["q"] = doc[2]["q"][:3]
    dump(doc, bad, "trajectory")
    with pytest.raises(InvalidTrajectoryError,
                       match="bad.json line 3: expected 7 joint values, "
                             "got 3"):
        load_trajectory(bad)
