"""The record layer: JSON documents and line files, pose records, and the
typed readers every loader and spec class reads its fields through.

A reader takes a value, the name to report it by and the caller's error
class, and returns the value as its kind or raises that class: a number
is a finite JSON number, never a bool or a string; a whole number has no
fractional part (3 or 3.0, not 2.5); a flag is true or false; a list of
numbers is one flat list, of a fixed length where the field has one;
an object is an instance of its field's class.
"""

import json
import math
import numbers

import numpy as np

from .screws import Pose, quat_to_rot, rot_to_quat


class InputError(ValueError):
    """Base class of every error that reports malformed or out-of-range
    input: files, specs, configurations and command-line values."""


class PoseRecordError(InputError):
    pass


# ----------------------------------------------------------------- readers


def _finite(x):
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


def _whole(x):
    return _finite(x) and float(x).is_integer()


def _check(ok, x, name, error, kind):
    if not ok:
        raise error(f"{name} must be {kind}")
    return x


def flag(x, name, error):
    """x, when it is true or false."""
    return _check(isinstance(x, bool), x, name, error, "true or false")


def text(x, name, error):
    """x, when it is a string."""
    return _check(isinstance(x, str), x, name, error, "a string")


def instance(x, kind, name, error):
    """x, when it is a kind."""
    return _check(isinstance(x, kind), x, name, error,
                  f"of type {kind.__name__}")


def real(x, name, error, null=False):
    """x as a float, when it is a finite number; None passes when null."""
    if null and x is None:
        return None
    return float(_check(_finite(x), x, name, error, "a finite number"))


def whole(x, name, error, low=0, null=False):
    """x as an int, when it is a whole number >= low; None passes when null."""
    if null and x is None:
        return None
    return int(_check(_whole(x) and x >= low, x, name, error,
                      f"a whole number >= {low}"))


def _flat(x, name, error, n, ok, kind):
    count = "" if n is None else f"{n} "
    return _check((isinstance(x, (list, tuple))
                   or isinstance(x, np.ndarray) and x.ndim == 1)
                  and (n is None or len(x) == n) and all(map(ok, x)),
                  x, name, error, f"{count}{kind} in one flat list")


def reals(x, name, error, n=None):
    """x as a tuple of floats: a flat list of finite numbers (n of them)."""
    return tuple(map(float, _flat(x, name, error, n, _finite,
                                  "finite numbers")))


def wholes(x, name, error, n=None, low=None):
    """x as a tuple of ints: a flat list of whole numbers (n of them),
    none below low when low is given."""
    bound = "" if low is None else f" >= {low}"
    return tuple(map(int, _flat(
        x, name, error, n, lambda v: _whole(v) and (low is None or v >= low),
        "whole numbers" + bound)))


# --------------------------------------------------------------- documents


# what a malformed field raises on its way through a builder
_FIELD_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError,
                 OverflowError)

UNITS = {"length": "m", "angle": "rad"}


def decode(doc, error, build, fmt=None, units=None):
    """build(doc) for a JSON object with the given "format" tag and
    declared units: a string such as "m", or a dict every key of which
    must match.  Any failure raises the caller's `error` class; an
    `error` raised by build (or by a nested decode or a reader) passes
    unchanged."""
    if not isinstance(doc, dict):
        raise error(f"expected a JSON object, got {type(doc).__name__}")
    if fmt is not None and doc.get("format") != fmt:
        raise error(f'expected format "{fmt}"')
    got = doc.get("units")
    if units is not None and not (
            got == units if isinstance(units, str)
            else isinstance(got, dict) and units.items() <= got.items()):
        raise error(f"expected units {units}, got {got}")
    try:
        return build(doc)
    except error:
        raise
    except KeyError as e:
        raise error(f"missing field {e}") from e
    except _FIELD_ERRORS as e:
        raise error(f"bad field: {e}") from e


def write_document(doc, path, indent=1):
    """One JSON document and a closing newline; NaN and infinities are
    refused, since JSON has no spelling for them."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=indent, allow_nan=False)
        f.write("\n")


def read_document(path, error):
    """One JSON document; the caller's `error` class, naming the path,
    for a file that is not JSON."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise error(f"{path}: not valid JSON: {e}") from e


def write_lines(header, records, path):
    """Line-delimited JSON: the header, then one record per line; NaN
    and infinities are refused."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in (header, *records):
            f.write(json.dumps(rec, allow_nan=False) + "\n")


def read_lines(path, error, header, record):
    """(header(first record), [record(r) for each later one]) of a
    line-delimited JSON file, blank lines skipped; each builder runs
    through decode, and every failure names the file and the line."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError as e:
                raise error(f"{path} line {n}: not valid JSON: {e}") from e
            try:
                out.append(decode(doc, error, record if out else header))
            except error as e:
                raise type(e)(f"{path} line {n}: {e}") from e
    if not out:
        raise error(f"{path}: empty file")
    return out[0], out[1:]


# ------------------------------------------------------------------- poses


def pose_to_record(pose):
    """Pose to the system-wide serialization record
    {"t": [x, y, z], "q": [w, x, y, z]}."""
    q = rot_to_quat(pose.rotation)
    return {"t": [float(x) for x in pose.translation],
            "q": [float(x) for x in q]}


def pose_from_record(record):
    q = reals(record["q"], "q", PoseRecordError, 4)
    if not any(q):
        raise PoseRecordError("q must not be all zeros")
    return Pose(quat_to_rot(q), reals(record["t"], "t", PoseRecordError, 3))


def save_pose_sequence(poses, path):
    """Ordered poses as one JSON document; the format the planner's
    guiding-pose input rides in."""
    write_document({"format": "pose_sequence", "units": {"length": "m"},
                    "poses": [pose_to_record(p) for p in poses]}, path)


def load_pose_sequence(path):
    poses = decode(read_document(path, PoseRecordError), PoseRecordError,
                   lambda doc: [pose_from_record(r) for r in doc["poses"]],
                   "pose_sequence", {"length": "m"})
    if not poses:
        raise PoseRecordError(f"{path}: no poses")
    return poses
