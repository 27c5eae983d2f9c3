"""The record layer: the typed readers every loader and spec class reads
its fields through, pose records, and the table of file formats that
save and load write and read every file through.

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
import os
from collections.abc import Callable
from dataclasses import dataclass

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


def _poses_to_record(poses):
    return {"format": "pose_sequence", "units": {"length": "m"},
            "poses": [pose_to_record(p) for p in poses]}


def _poses_from_record(doc):
    return decode(doc, PoseRecordError,
                  lambda doc: [pose_from_record(r) for r in doc["poses"]],
                  "pose_sequence", {"length": "m"})


def _some_poses(poses, path):
    if not poses:
        raise PoseRecordError(f"{path}: no poses")


# ------------------------------------------------------------------- files


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


@dataclass(frozen=True)
class Format:
    """One file format: the error class its reads raise and its
    converters.  A document is to_record(obj, **fields) written at
    indent, read back by from_record.  A line file holds one record per
    line; its lines = (header, line) builders read them (_read_lines)
    for from_record(header, rows).  check(obj, path) refuses, before a
    write and after a read, what the format cannot hold; table(obj) is
    the plain-text summary written beside a document (.txt)."""

    error: type
    to_record: Callable
    from_record: Callable
    indent: int = 1
    lines: tuple = None
    check: Callable = lambda obj, path: None
    table: Callable = None


# format tag -> Format; each module adds its own beside its converters
FORMATS = {
    "pose_sequence": Format(PoseRecordError, _poses_to_record,
                            _poses_from_record, check=_some_poses),
}


def save(tag, obj, path, **fields):
    """Write obj to path in the format tag names; fields are what the
    file records beside the object (a segments file's object_id and
    fit_tol, a trajectory's robot).  NaN and infinities are refused,
    since JSON has no spelling for them."""
    fmt = FORMATS[tag]
    fmt.check(obj, path)
    record = fmt.to_record(obj, **fields)
    with open(path, "w", encoding="utf-8") as f:
        for rec in record if fmt.lines else [record]:
            f.write(json.dumps(rec, indent=None if fmt.lines else fmt.indent,
                               allow_nan=False) + "\n")
    if fmt.table:
        with open(os.path.splitext(path)[0] + ".txt", "w",
                  encoding="utf-8") as f:
            f.write(fmt.table(obj))


def load(tag, path):
    """The object a file of format tag holds.  Any failure raises the
    format's error class, which names the path for a file that is not
    JSON, and the file and the line for a line file."""
    fmt = FORMATS[tag]
    with open(path, "r", encoding="utf-8") as f:
        read = (_read_lines(f, path, fmt.error, *fmt.lines) if fmt.lines
                else [_json(f.read(), fmt.error, path)])
    obj = fmt.from_record(*read)
    fmt.check(obj, path)
    return obj


def _read_lines(f, path, error, header, line):
    """(header(first record), [line(record, header(first record)) for
    each later one]) of the line-delimited JSON file f, blank lines
    skipped; each builder runs through decode."""
    out = []
    for n, raw in enumerate(f, start=1):
        if not raw.strip():
            continue
        doc = _json(raw, error, f"{path} line {n}")
        try:
            out.append(decode(doc, error, header if not out else
                              lambda rec: line(rec, out[0])))
        except error as e:
            raise type(e)(f"{path} line {n}: {e}") from e
    if not out:
        raise error(f"{path}: empty file")
    return out[0], out[1:]


def _json(raw, error, where):
    try:
        return json.loads(raw)
    except ValueError as e:
        raise error(f"{where}: not valid JSON: {e}") from e
