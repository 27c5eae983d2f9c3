"""Every loader against a file the package wrote: it reads back what it
wrote, and a randomly broken copy either loads or raises the error the
loader documents, never a bare KeyError, TypeError or JSONDecodeError.
A field swapped for a value of the wrong kind always raises that error.
A lint over the package's source keeps loaders from coercing fields, and
each JSON example in FORMATS.md has the keys and nesting of the file the
package writes."""

import ast
import json
import math
import re
from dataclasses import replace
from pathlib import Path

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
                               Mode, Outcome,
                               load_trajectory, save_trajectory)
from screwplan.records import (PoseRecordError, load_pose_sequence,
                               save_pose_sequence)


def _demo():
    return sc.pick_place_demo(sc.DEMO_PICK, sc.DEMO_PLACE,
                              samples_per_leg=4)


def _trajectory():
    model = panda_model()
    qs = PANDA_READY + np.linspace(0.0, 0.03, 3)[:, None]
    poses = [forward_kinematics(model, q) for q in qs]
    return JointTrajectory(
        q=qs, rotation=[pose.rotation for pose in poses],
        translation=[pose.translation for pose in poses],
        mode=[Mode.MODE1, Mode.MODE2, Mode.MODE1],
        damped=[False, True, False],
        outcome=Outcome.STEP_BUDGET_EXHAUSTED, segment_starts=[0, 1])


def _spec():
    _, spec = sc.near_limit_scenarios()[0]
    moving = sc.moving_wall_activity(3, layers=1, per_layer=1)
    return replace(spec, base_policy=moving.base_policy)


def _report(mode2, steps):
    goal = sc.flat_pose([0.5, 0.1, 0.02], yaw=0.3)
    placements = tuple(PlacementResult(
        index=(1, j, 1), goal=goal, achieved=sc.flat_pose([0.5, 0.1, 0.021]),
        position_error=0.001 * j, yaw_error=0.01, rotation_error=0.3,
        success=j == 1, trajectory_outcome=outcome, steps=steps + j)
        for j, outcome in ((1, Outcome.REACHED),
                           (2, Outcome.MOTION_PLAN_FAILED)))
    return ActivityReport(
        robot="panda", layout_kind="straight_wall", mode2_enabled=mode2,
        goals_total=3, placements=placements,
        bricks_placed_before_failure=1, mean_position_error=0.001,
        max_yaw_error=0.01, runtime_seconds=1.5)


# name -> (write the file, load, save, the error the loader documents);
# the writers pass what the loaded objects do not carry (segments'
# object id and tolerances, a trajectory's robot name)
LOADERS = {
    "pose_sequence": (
        lambda p: save_pose_sequence(_demo().poses[::4], p),
        load_pose_sequence, save_pose_sequence, PoseRecordError),
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
# fields written for the reader's convenience that no loader reads
UNREAD = {"segments": {"object_id", "fit_tol", "screw"},
          "trajectory": {"robot", "step"}}
# lists of numbers whose length varies with the content
ANY_LENGTH = {"anchor_initial", "anchor_goal", "segment_starts"}


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


def number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def swaps(doc, name):
    """Every (path, value of the wrong kind) for a field a loader reads:
    a string for a number, true for a number, 2.5 for a whole number, a
    number for a string, and a list of numbers one short or one long."""
    out = []
    for path, _ in paths(doc):
        if UNREAD.get(name, set()) & set(path):
            continue
        value = doc
        for key in path:
            value = value[key]
        if number(value):
            out += [(path, str(value)), (path, True)]
            if isinstance(value, int):
                out.append((path, 2.5))
        elif isinstance(value, str):
            out.append((path, 7))
        elif (isinstance(value, list) and value and all(map(number, value))
              and path[-1] not in ANY_LENGTH):
            out += [(path, value[:-1]), (path, value + value[-1:])]
    return out


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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("name", LOADERS)
@given(data=st.data())
def test_type_swaps_raise_the_documented_error(name, written, tmp_path,
                                               data):
    _, load, _, error = LOADERS[name]
    doc = parse(written[name], name)
    path, value = data.draw(st.sampled_from(swaps(doc, name)))
    _set(*path, value)(doc)
    bad = tmp_path / "bad.json"
    dump(doc, bad, name)
    with pytest.raises(error) as info:
        load(bad)
    assert documented(info.value, error), repr(info.value)


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


# each of these loaded at one time, read as something else
WRONG_KIND = {
    "goal index of strings": (
        "goal_sequence", _set("goals", 0, "index", ["a", "b", "c"])),
    "segment bounds of true and 2.5": (
        "segments", lambda doc: doc["segments"][0].update(start=True,
                                                          end=2.5)),
    "fractional sew_indices": (
        "robot", _set("sew_indices", [0.7, 3, 5.9])),
    "string twists": (
        "robot", _set("twists", 0, ["0.0", "0.0", "0.0", "0.0", "0.0",
                                    "1.0"])),
    "string q_start": (
        "activity_spec", _set("q_start", ["0.0"] * 7)),
    "string trajectory q": (
        "trajectory", _set(1, "q", ["0.1"] * 7)),
    "string pose t": (
        "pose_sequence", _set("poses", 0, "t", ["0.1", "0.2", "0.3"])),
    "string pose q": (
        "pose_sequence", _set("poses", 0, "q", ["1.0", "0.0", "0.0",
                                                "0.0"])),
    "string sample time": (
        "demonstration", _set(1, "t", "0.0")),
    "true sample time": (
        "demonstration", _set(-1, "t", True)),
}


@pytest.mark.parametrize("case", WRONG_KIND)
def test_wrong_kind_fields_raise_the_documented_error(case, written,
                                                      tmp_path):
    name, edit = WRONG_KIND[case]
    _, load, _, error = LOADERS[name]
    doc = parse(written[name], name)
    edit(doc)
    bad = tmp_path / "bad.json"
    dump(doc, bad, name)
    with pytest.raises(error) as info:
        load(bad)
    assert documented(info.value, error), repr(info.value)


RECORD_NAMES = {"rec", "doc", "record", "pol", "planner", "station"}
COERCIONS = {"str", "int", "float", "bool", "tuple", "np.array",
             "np.asarray"}
SOURCE = Path(__file__).parent.parent / "src" / "screwplan"


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return None


def _reads_record(node):
    """node is a field of a record: rec[...] or rec.get(...), at any
    depth of subscripts."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            node = node.func.value
        else:
            return isinstance(node, ast.Name) and node.id in RECORD_NAMES


def test_no_loader_coerces_a_record_field():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and _dotted(node.func) in COERCIONS
                    and any(map(_reads_record, node.args))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_screws_is_only_the_algebra():
    tree = ast.parse((SOURCE / "screws.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not imported & {"json", "records", "screwplan.records"}


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


# FORMATS.md section -> the LOADERS file its JSON example documents
FORMAT_SECTIONS = {
    "Demonstration (line-delimited)": "demonstration",
    "Pose sequence": "pose_sequence",
    "Segments": "segments",
    "Constraint model": "constraint_model",
    "Layout spec": "layout_spec",
    "Goal sequence": "goal_sequence",
    "Robot model": "robot",
    "Trajectory (line-delimited)": "trajectory",
    "Activity spec": "activity_spec",
    "Activity report": "activity_report",
    "Paired activity report": "paired_activity_report",
}
# a JSON string, a number, or a bare placeholder such as pose, x or ...
_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")|(-?\d[\d.eE+-]*)'
                    r'|(\.\.\.|[A-Za-z_][\w-]*)')


def _documented_examples():
    """FORMATS.md's JSON examples by section title (the document's own
    title before the first section): per fenced json block, the JSON
    values it holds, with each placeholder read as the string "*" and
    its name ("*pose", "*...")."""
    text = (Path(__file__).parent.parent / "FORMATS.md").read_text()
    out = {}
    for part in text.split("\n## "):
        title, _, body = part.partition("\n")
        for block in re.findall(r"```json\n(.*?)```", body, re.S):
            block = _TOKEN.sub(lambda m: (
                m.group(0) if not m.group(3)
                or m.group(3) in ("true", "false", "null")
                else f'"*{m.group(3)}"'), block)
            values, at = [], 0
            while block[at:].strip():
                at += len(block[at:]) - len(block[at:].lstrip())
                value, at = json.JSONDecoder().raw_decode(block, at)
                values.append(value)
            out.setdefault(title, []).append(values)
    return out


def _placeholder(x):
    return isinstance(x, str) and x.startswith("*")


def _departures(doc, got, refs, at=()):
    """Paths where the written value got departs from the documented
    doc: a key one has and the other lacks, a container where the other
    has a scalar or another container, or a format or units value that
    differs.  A placeholder named in refs stands for that example, any
    other matches anything; every element of a written list must match
    the documented list's first element that is not such a wildcard."""
    if _placeholder(doc):
        return _departures(refs[doc], got, refs, at) if doc in refs else []
    if isinstance(doc, dict):
        if not isinstance(got, dict):
            return [at]
        out = [at + (k,) for k in sorted(doc.keys() ^ got.keys())]
        for k in doc.keys() & got.keys():
            if k in ("format", "units"):
                out += [at + (k,)] if doc[k] != got[k] else []
            else:
                out += _departures(doc[k], got[k], refs, at + (k,))
        return out
    if isinstance(doc, list):
        if not isinstance(got, list):
            return [at]
        template = [x for x in doc if not _placeholder(x) or x in refs][:1]
        return [p for i, x in enumerate(got) for t in template
                for p in _departures(t, x, refs, at + (i,))]
    return [at] if isinstance(got, (dict, list)) else []


def test_formats_md_matches_the_written_files(written, tmp_path):
    examples = _documented_examples()
    ((pose,),) = examples.pop("# File formats")
    assert examples.keys() == FORMAT_SECTIONS.keys()
    doc_of = {title: blocks[0][0] for title, blocks in examples.items()}
    # the placeholders that name another example
    refs = {"*pose": pose,
            "*layout-spec-record": doc_of["Layout spec"],
            "*constraint-model-record": doc_of["Constraint model"],
            "*report-results": doc_of["Activity report"]["results"]}
    for title, name in FORMAT_SECTIONS.items():
        got = parse(written[name], name)
        if name in LINE_DELIMITED:
            # one header line, then one record per line
            header, record, *_ = examples[title][0]
            bad = _departures(header, got[0], refs) + [
                p for rec in got[1:] for p in _departures(record, rec, refs)]
            assert len(got) > 1
        else:
            bad = _departures(doc_of[title], got, refs)
        if name == "activity_spec":
            # the spec shown has the stock arm and a fixed base; the
            # written spec embeds a pinched arm as a robot model record
            # and holds the section's second example, a moving base
            ((moving,),) = examples[title][1:]
            bad = [p for p in bad
                   if p[:1] not in (("robot",), ("base_policy",))]
            bad += _departures(doc_of["Robot model"], got["robot"], refs)
            bad += _departures(moving, got["base_policy"], refs)
            stock = tmp_path / "stock_spec.json"
            save_activity_spec(sc.brick_wall_activity(1, 1), stock)
            bad += _departures(doc_of[title], parse(stock, name), refs)
        assert bad == [], f"{title}: {bad}"
