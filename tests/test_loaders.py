"""Every format of records.FORMATS against a file the package wrote:
records.load reads back what records.save wrote, and a randomly broken
copy either loads or raises the error the format documents, never a
bare KeyError, TypeError or JSONDecodeError.  A field swapped for a
value of the wrong kind always raises that error.  Lints over the
package's source keep loaders from coercing fields and every file read
and write inside records, and FORMATS.md has one section per format tag
whose JSON example has the keys and nesting of the file the package
writes."""

import ast
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from screwplan import records, scenarios as sc
from screwplan.activity import ActivityReport, PairedReport, PlacementResult
from screwplan.demonstration import (DEFAULT_FIT_TOL, DemonstrationError,
                                     MalformedDemonstrationError,
                                     TaskInstance, extract_guiding_poses,
                                     segment_demonstration)
from screwplan.kinematics import PANDA_READY, forward_kinematics, panda_model
from screwplan.layouts import InvalidLayoutError, layout_goals
from screwplan.planner import (InvalidTrajectoryError, JointTrajectory,
                               Mode, Outcome)
from screwplan.records import FORMATS


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


# format tag -> (an object of the format, the fields its file records
# beside the object: segments' object id and tolerances, a trajectory's
# robot name)
SAMPLES = {
    "pose_sequence": (lambda: list(_demo().poses)[::4], {}),
    "demonstration": (_demo, {}),
    "segments": (lambda: segment_demonstration(_demo()),
                 {"object_id": "brick", "fit_tol": DEFAULT_FIT_TOL}),
    "constraint_model": (lambda: sc.model_from_demo(_demo()), {}),
    "layout_spec": (lambda: sc.brick_wall_activity().layout, {}),
    "goal_sequence": (
        lambda: layout_goals(sc.brick_wall_activity(2, 2).layout), {}),
    "robot": (panda_model, {}),
    "trajectory": (_trajectory, {"robot": "panda"}),
    "activity_spec": (_spec, {}),
    "activity_report": (lambda: _report(True, 40), {}),
    "paired_activity_report": (
        lambda: PairedReport(_report(True, 40), _report(False, 7)), {}),
}


def error_of(tag):
    """The error a format's loader documents: its table entry's class;
    a demonstration's time checks raise NonMonotoneTimeError beside it,
    both DemonstrationError."""
    return DemonstrationError if tag == "demonstration" else FORMATS[tag].error


def line_file(tag):
    return FORMATS[tag].lines is not None


REPLACEMENTS = (None, "x", [], {}, math.inf, [[0.0, 1.0], [2.0]])
# fields written for the reader's convenience that no loader reads
UNREAD = {"segments": {"object_id", "fit_tol", "screw"},
          "trajectory": {"robot", "step"}}
# lists of numbers whose length varies with the content
ANY_LENGTH = {"anchor_initial", "anchor_goal", "segment_starts"}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """tag -> the path of a file the package wrote."""
    root = tmp_path_factory.mktemp("written")
    out = {}
    for name, (sample, fields) in SAMPLES.items():
        out[name] = root / name / f"{name}.json"
        out[name].parent.mkdir()
        records.save(name, sample(), out[name], **fields)
    return out


def parse(path, name):
    """The file as one JSON value: a list of records for line files."""
    text = path.read_text()
    if line_file(name):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def dump(doc, path, name):
    if line_file(name):
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


@pytest.mark.parametrize("name", SAMPLES)
def test_save_of_load_reproduces_the_file(name, written, tmp_path):
    src = written[name]
    again = tmp_path / src.name
    records.save(name, records.load(name, src), again, **SAMPLES[name][1])
    # quat_to_rot then back is not the identity in floating point:
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


@pytest.mark.parametrize("name", SAMPLES)
def test_wrong_units_raise_the_loaders_error(name, written, tmp_path):
    doc = parse(written[name], name)
    top = doc[0] if line_file(name) else doc
    top["units"] = ("mm" if isinstance(top["units"], str)
                    else {**top["units"], "length": "mm"})
    dump(doc, tmp_path / "bad.json", name)
    with pytest.raises(error_of(name), match="expected units"):
        records.load(name, tmp_path / "bad.json")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("name", SAMPLES)
@given(data=st.data())
def test_broken_files_raise_only_the_documented_error(name, written,
                                                      tmp_path, data):
    doc = parse(written[name], name)
    kind = data.draw(st.sampled_from(("delete", "replace", "list")))
    if kind == "list":
        if line_file(name):
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
        records.load(name, bad)
    except Exception as exc:
        assert documented(exc, error_of(name)), repr(exc)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("name", SAMPLES)
@given(data=st.data())
def test_type_swaps_raise_the_documented_error(name, written, tmp_path,
                                               data):
    doc = parse(written[name], name)
    path, value = data.draw(st.sampled_from(swaps(doc, name)))
    _set(*path, value)(doc)
    bad = tmp_path / "bad.json"
    dump(doc, bad, name)
    with pytest.raises(error_of(name)) as info:
        records.load(name, bad)
    assert documented(info.value, error_of(name)), repr(info.value)


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
    doc = parse(written[name], name)
    edit(doc)
    bad = tmp_path / "bad.json"
    dump(doc, bad, name)
    with pytest.raises(error_of(name)) as info:
        records.load(name, bad)
    assert documented(info.value, error_of(name)), repr(info.value)


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


def test_reals_reads_an_array_as_its_list():
    # a float array takes a bulk path through records.reals: it accepts
    # and returns exactly what the list of its entries gives
    def read(x, n):
        try:
            got = records.reals(x, "x", ValueError, n)
        except ValueError as e:
            return str(e)
        assert all(type(v) is float for v in got)
        return got

    for values in ([0.0, 0.02, -1e-300], [], [1.5], [0.0, math.nan],
                   [math.inf, 0.0], [[0.0, 0.02]], [[0.0], [1.0]]):
        for dtype in (float, np.float32, int):
            if dtype is int and not np.isfinite(values).all():
                continue
            a = np.array(values, dtype=dtype)
            for n in (None, 1, 2):
                assert read(a, n) == read(a.tolist(), n)
    assert read(np.float64(1.0), None) == read(1.0, None)


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
        records.load("segments", bad)
    doc = parse(written["goal_sequence"], "goal_sequence")
    doc["goals"][0]["index"] = [1]
    dump(doc, bad, "goal_sequence")
    with pytest.raises(InvalidLayoutError):
        records.load("goal_sequence", bad)
    doc = parse(written["trajectory"], "trajectory")
    del doc[0]["outcome"]
    dump(doc, bad, "trajectory")
    with pytest.raises(InvalidTrajectoryError,
                       match="bad.json line 1: missing field 'outcome'"):
        records.load("trajectory", bad)
    bad.write_text("{not json\n" + written["trajectory"].read_text())
    with pytest.raises(InvalidTrajectoryError,
                       match="bad.json line 1: not valid JSON"):
        records.load("trajectory", bad)


def test_trajectory_steps_share_a_joint_count(written, tmp_path):
    # a step cut to 3 of 7 joint values used to load as a (3,) step
    bad = tmp_path / "bad.json"
    doc = parse(written["trajectory"], "trajectory")
    doc[2]["q"] = doc[2]["q"][:3]
    dump(doc, bad, "trajectory")
    with pytest.raises(InvalidTrajectoryError,
                       match="bad.json line 3: expected 7 joint values, "
                             "got 3"):
        records.load("trajectory", bad)


FORMATS_MD = Path(__file__).parent.parent / "FORMATS.md"
# the one section that documents no format
LOADING = "Loading and errors"


def _section_tag(title):
    """The format tag a FORMATS.md section title names in backticks."""
    found = re.findall(r"`(\w+)`", title)
    return found[0] if len(found) == 1 else None


# a JSON string, a number, or a bare placeholder such as pose, x or ...
_TOKEN = re.compile(r'("(?:[^"\\]|\\.)*")|(-?\d[\d.eE+-]*)'
                    r'|(\.\.\.|[A-Za-z_][\w-]*)')


def _sections():
    """FORMATS.md's sections as (title, body), the document's own title
    before the first section."""
    return [part.partition("\n")[::2]
            for part in FORMATS_MD.read_text().split("\n## ")]


def _documented_examples():
    """FORMATS.md's JSON examples by section title: per fenced json
    block, the JSON values it holds, with each placeholder read as the
    string "*" and its name ("*pose", "*...")."""
    out = {}
    for title, body in _sections():
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
    # every section but one documents one format, and every format has
    # a section
    titles = {_section_tag(title): title for title, _ in _sections()[1:]
              if title != LOADING}
    assert None not in titles
    assert titles.keys() == FORMATS.keys()
    assert examples.keys() == set(titles.values())
    doc_of = {tag: examples[title][0][0] for tag, title in titles.items()}
    # the placeholders that name another example
    refs = {"*pose": pose,
            "*layout-spec-record": doc_of["layout_spec"],
            "*constraint-model-record": doc_of["constraint_model"],
            "*report-results": doc_of["activity_report"]["results"]}
    for name in FORMATS:
        title = titles[name]
        got = parse(written[name], name)
        if line_file(name):
            # one header line, then one record per line
            header, record, *_ = examples[title][0]
            bad = _departures(header, got[0], refs) + [
                p for rec in got[1:] for p in _departures(record, rec, refs)]
            assert len(got) > 1
        else:
            bad = _departures(doc_of[name], got, refs)
        if name == "activity_spec":
            # the spec shown has the stock arm and a fixed base; the
            # written spec embeds a pinched arm as a robot model record
            # and holds the section's second example, a moving base
            ((moving,),) = examples[title][1:]
            bad = [p for p in bad
                   if p[:1] not in (("robot",), ("base_policy",))]
            bad += _departures(doc_of["robot"], got["robot"], refs)
            bad += _departures(moving, got["base_policy"], refs)
            stock = tmp_path / "stock_spec.json"
            records.save(name, sc.brick_wall_activity(1, 1), stock)
            bad += _departures(doc_of[name], parse(stock, name), refs)
        assert bad == [], f"{title}: {bad}"


def test_formats_md_names_each_formats_error():
    """The loading section's table: one row per format tag, whose first
    class is the format's error."""
    (body,) = [body for title, body in _sections() if title == LOADING]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)`", body, re.M)
    assert dict(rows) == {tag: fmt.error.__name__
                          for tag, fmt in FORMATS.items()}
    assert len(rows) == len(FORMATS)


# what reads or writes a file, called by name or as a method
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes",
              "write_bytes"}


def test_only_records_reads_and_writes_files():
    """Every format goes through records.save and records.load, so no
    other module opens a file or calls json."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = ((_dotted(node.func) or "") if isinstance(node, ast.Call)
                    else "")
            if (name.split(".")[-1] in FILE_CALLS
                    or name.startswith("json.")
                    or isinstance(node, ast.Import) and any(
                        alias.name == "json" for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_segments_must_chain(written, tmp_path):
    # an empty list used to load, and then extract_guiding_poses raised
    # a bare IndexError; segments out of order loaded as well
    doc = parse(written["segments"], "segments")
    segments = records.load("segments", written["segments"])
    assert len(segments) > 1
    bad = tmp_path / "bad.json"
    for edit, message in (
            (lambda d: d.update(segments=[]), "bad.json: no segments"),
            (lambda d: d["segments"].reverse(),
             "bad.json: segment 1 starts at .*, not at the previous end")):
        broken = json.loads(json.dumps(doc))
        edit(broken)
        dump(broken, bad, "segments")
        with pytest.raises(MalformedDemonstrationError, match=message):
            records.load("segments", bad)
    # what the loader refuses is never written
    unwritten = tmp_path / "unwritten.json"
    for refused in ([], segments[::-1]):
        with pytest.raises(MalformedDemonstrationError):
            records.save("segments", refused, unwritten)
        assert not unwritten.exists()
    demo = _demo()
    with pytest.raises(DemonstrationError, match="at least one segment"):
        extract_guiding_poses([], TaskInstance(demo.poses[0],
                                               demo.poses[-1]))
