"""From one recorded object manipulation to a transferable motion model.

A demonstration is a timestamped sequence of object poses. Segmentation
splits it into maximal runs that each fit a single constant screw within a
tolerance; the run boundaries become guiding poses. Guiding poses near the
demonstrated pick object anchor to it, those near the demonstrated place
pose anchor to the goal, and transfer re-expresses each anchored group
relative to a new task instance by a left action, which preserves every
relative screw inside a group.

File format (line-delimited JSON): a header record
``{"object_id": ..., "units": "m"}`` followed by sample records
``{"t": seconds, "pose": {"t": [x, y, z], "q": [w, x, y, z]}}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .screws import (
    UNITS,
    Pose,
    compose,
    decode,
    inverse,
    pose_error,
    pose_errors,
    quat_to_rot,
    pose_from_record,
    pose_to_record,
    read_document,
    read_lines,
    sclerp_path,
    screw_from_pose,
    write_document,
    write_lines,
    ScrewDisplacement,
)

DEFAULT_FIT_TOL = (0.02, 0.005)
DEFAULT_ROI_RADIUS = 0.15


class DemonstrationError(ValueError):
    """Base class for demonstration input problems."""


class MalformedDemonstrationError(DemonstrationError):
    pass


class NonMonotoneTimeError(DemonstrationError):
    pass


class BadQuaternionError(MalformedDemonstrationError):
    pass


class DegenerateDemonstrationError(DemonstrationError):
    pass


class MalformedModelError(DemonstrationError):
    pass


class NoAnchorError(DemonstrationError):
    pass


@dataclass(frozen=True)
class Demonstration:
    times: np.ndarray
    poses: tuple
    object_id: str

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        poses = tuple(self.poses)
        if times.ndim != 1 or len(times) != len(poses) or len(poses) < 2:
            raise MalformedDemonstrationError(
                "need matching times and poses, at least 2 samples")
        if not np.all(np.isfinite(times)):
            raise MalformedDemonstrationError("non-finite timestamps")
        if np.any(np.diff(times) <= 0.0):
            raise NonMonotoneTimeError("timestamps must strictly increase")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "poses", poses)


@dataclass(frozen=True)
class TaskInstance:
    """One unit of work: initial (pick) and goal (place) object pose."""

    initial: Pose
    goal: Pose


@dataclass(frozen=True)
class ScrewSegment:
    """Maximal demonstration span fitted by one constant screw."""

    start_index: int
    end_index: int
    screw: ScrewDisplacement
    start_pose: Pose
    end_pose: Pose

    def __post_init__(self):
        if not 0 <= self.start_index < self.end_index:
            raise ValueError("segment indices must satisfy start < end")


@dataclass(frozen=True)
class ConstraintModel:
    """Guiding poses with their anchor index sets and source instance."""

    guiding_poses: tuple
    anchor_initial: tuple
    anchor_goal: tuple
    source: TaskInstance

    def __post_init__(self):
        n = len(self.guiding_poses)
        ai, ag = tuple(self.anchor_initial), tuple(self.anchor_goal)
        if n < 2:
            raise ValueError("need at least two guiding poses")
        if ai != tuple(range(len(ai))) or not ai:
            raise ValueError("initial anchors must be a nonempty prefix")
        if ag != tuple(range(n - len(ag), n)) or not ag:
            raise ValueError("goal anchors must be a nonempty suffix")
        if len(ai) + len(ag) > n:
            raise ValueError("anchor sets overlap")
        object.__setattr__(self, "guiding_poses", tuple(self.guiding_poses))
        object.__setattr__(self, "anchor_initial", ai)
        object.__setattr__(self, "anchor_goal", ag)


# ------------------------------------------------------------------ file IO


def _sample(rec):
    pose = pose_from_record(rec["pose"])
    drift = abs(np.linalg.norm(rec["pose"]["q"]) - 1.0)
    if drift > 1e-3:
        raise BadQuaternionError(
            f"quaternion norm drift {drift:.2e} exceeds 1e-3")
    return float(rec["t"]), pose


def load_demonstration(source):
    """Read a line-delimited JSON demonstration file."""
    object_id, samples = read_lines(
        source, MalformedDemonstrationError,
        lambda doc: decode(doc, MalformedDemonstrationError,
                           lambda doc: str(doc["object_id"]), units="m"),
        _sample)
    return Demonstration(np.array([t for t, _ in samples]),
                         tuple(p for _, p in samples), object_id)


def save_demonstration(demo, destination):
    write_lines({"object_id": demo.object_id, "units": "m"},
                ({"t": float(t), "pose": pose_to_record(pose)}
                 for t, pose in zip(demo.times, demo.poses)), destination)


def constraint_model_to_record(model):
    return {
        "format": "constraint_model",
        "units": "m",
        "guiding_poses": [pose_to_record(g) for g in model.guiding_poses],
        "anchor_initial": list(model.anchor_initial),
        "anchor_goal": list(model.anchor_goal),
        "source": {"initial": pose_to_record(model.source.initial),
                   "goal": pose_to_record(model.source.goal)},
    }


def constraint_model_from_record(doc):
    return decode(doc, MalformedModelError, lambda doc: ConstraintModel(
        guiding_poses=tuple(pose_from_record(g)
                            for g in doc["guiding_poses"]),
        anchor_initial=tuple(doc["anchor_initial"]),
        anchor_goal=tuple(doc["anchor_goal"]),
        source=TaskInstance(
            initial=pose_from_record(doc["source"]["initial"]),
            goal=pose_from_record(doc["source"]["goal"]))),
        "constraint_model", "m")


def save_constraint_model(model, destination):
    write_document(constraint_model_to_record(model), destination, indent=2)


def load_constraint_model(source):
    return constraint_model_from_record(
        read_document(source, MalformedModelError))


def _screw_record(screw):
    return {"axis": [float(x) for x in screw.axis],
            "moment": [float(x) for x in screw.moment],
            "pitch": None if math.isinf(screw.pitch) else float(screw.pitch),
            "magnitude": float(screw.magnitude)}


def save_segments(segments, destination, object_id="", fit_tol=None):
    """Segmentation result as one JSON document.

    The boundary poses are the source of truth; each segment's screw
    parameters are included for reading convenience (pitch null means a
    pure translation) and are reconstructed from the poses on load.
    """
    doc = {
        "format": "segments",
        "units": dict(UNITS),
        "object_id": object_id,
        "segments": [{
            "start": s.start_index,
            "end": s.end_index,
            "start_pose": pose_to_record(s.start_pose),
            "end_pose": pose_to_record(s.end_pose),
            "screw": _screw_record(s.screw),
        } for s in segments],
    }
    if fit_tol is not None:
        doc["fit_tol"] = {"rotation": fit_tol[0], "translation": fit_tol[1]}
    write_document(doc, destination)


def _segment(rec):
    start = pose_from_record(rec["start_pose"])
    end = pose_from_record(rec["end_pose"])
    return ScrewSegment(rec["start"], rec["end"],
                        screw_from_pose(compose(end, inverse(start))),
                        start, end)


def load_segments(source):
    return decode(read_document(source, MalformedDemonstrationError),
                  MalformedDemonstrationError,
                  lambda doc: [_segment(rec) for rec in doc["segments"]],
                  "segments", UNITS)


# ------------------------------------------------------------- segmentation


def _deviation_from_chord(poses, Rs, ps, start, end, cum):
    """Worst (rotation, translation) deviation of interior samples from the
    constant-screw interpolant between samples start and end. Interior
    samples sit at interpolation parameters proportional to accumulated
    pose-error arc length."""
    span = cum[end] - cum[start]
    if span <= 0.0:
        return 0.0, 0.0
    taus = (cum[start + 1:end] - cum[start]) / span
    rot, trans = pose_errors(*sclerp_path(poses[start], poses[end], taus),
                             Rs[start + 1:end], ps[start + 1:end])
    return float(rot.max(initial=0.0)), float(trans.max(initial=0.0))


def segment_demonstration(demo, fit_tol=DEFAULT_FIT_TOL):
    """Greedy longest-fit split into constant-screw segments.

    Each window grows while every interior sample stays within fit_tol
    (rotation radians, translation meters) of the screw interpolant between
    the window endpoints; consecutive segments share their boundary sample.
    """
    rot_tol, trans_tol = fit_tol
    poses = demo.poses
    n = len(poses)
    Rs = np.stack([p.rotation for p in poses])
    ps = np.stack([p.translation for p in poses])
    # arc length: one radian of rotation counts as one meter
    inc = [r + t for r, t in (pose_error(a, b)
                              for a, b in zip(poses, poses[1:]))]
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    if cum[-1] < 1e-12:
        raise DegenerateDemonstrationError(
            "demonstration has fewer than 2 distinct poses")
    segments = []
    a = 0
    while a < n - 1:
        b = a + 1
        while b + 1 <= n - 1:
            rot, trans = _deviation_from_chord(poses, Rs, ps, a, b + 1, cum)
            if rot > rot_tol or trans > trans_tol:
                break
            b += 1
        segments.append(ScrewSegment(
            a, b,
            screw_from_pose(compose(poses[b], inverse(poses[a]))),
            poses[a], poses[b]))
        a = b
    return segments


# --------------------------------------------- guiding poses and transfer


def extract_guiding_poses(segments, instance, roi_radius=DEFAULT_ROI_RADIUS):
    """Segment boundaries as guiding poses, anchored to the instance.

    The anchored-to-initial set is the longest prefix of guiding poses whose
    translation lies within roi_radius of the initial object; the goal set
    is the corresponding suffix around the goal pose. When the two regions
    overlap, the overlap splits at the first pose strictly nearer the goal,
    clamped so both sets stay nonempty.
    """
    guiding = [segments[0].start_pose] + [s.end_pose for s in segments]
    n = len(guiding)
    d_init = [float(np.linalg.norm(g.translation
                                   - instance.initial.translation))
              for g in guiding]
    d_goal = [float(np.linalg.norm(g.translation
                                   - instance.goal.translation))
              for g in guiding]
    if d_init[0] > roi_radius:
        raise NoAnchorError(
            "demonstration does not start inside the initial object's "
            f"region ({d_init[0]:.3f} m away, radius {roi_radius} m)")
    if d_goal[-1] > roi_radius:
        raise NoAnchorError(
            "demonstration does not end inside the goal region "
            f"({d_goal[-1]:.3f} m away, radius {roi_radius} m)")
    p = 1
    while p < n and d_init[p] <= roi_radius:
        p += 1
    s = 1
    while s < n and d_goal[n - 1 - s] <= roi_radius:
        s += 1
    if p + s > n:  # regions overlap: split by proximity
        cut = p
        for i in range(n - s, p):
            if d_goal[i] < d_init[i]:
                cut = i
                break
        cut = min(max(cut, 1), n - 1)
        p, s = cut, n - cut
    return ConstraintModel(tuple(guiding), tuple(range(p)),
                           tuple(range(n - s, n)), instance)


def transfer_constraints(model, new_instance):
    """Guiding poses re-targeted to a new task instance.

    Initial-anchored poses move by new_initial o old_initial^-1, goal-
    anchored ones by the corresponding goal map; an unanchored middle run
    splits at its midpoint (first half follows the initial map).
    """
    to_initial = compose(new_instance.initial, inverse(model.source.initial))
    to_goal = compose(new_instance.goal, inverse(model.source.goal))
    last_initial = model.anchor_initial[-1]
    first_goal = model.anchor_goal[0]
    run = first_goal - last_initial - 1
    cut = last_initial + 1 + (run + 1) // 2
    out = []
    for i, g in enumerate(model.guiding_poses):
        out.append(compose(to_initial if i < cut else to_goal, g))
    return out


# ---------------------------------------------------------------- synthesis


def synthesize_demonstration(key_poses, samples_per_leg=50,
                             object_id="object", dt=0.02,
                             noise=(0.0, 0.0), rng=None):
    """Sample a piecewise-constant-screw path through key poses.

    samples_per_leg is an int (same for every leg) or a sequence per leg;
    each leg contributes that many new samples, so key poses land exactly on
    samples. noise = (max rotation radians, max translation meters) applies
    an independent bounded perturbation to every sample.
    """
    keys = list(key_poses)
    if len(keys) < 2:
        raise ValueError("need at least two key poses")
    if isinstance(samples_per_leg, int):
        counts = [samples_per_leg] * (len(keys) - 1)
    else:
        counts = list(samples_per_leg)
    if len(counts) != len(keys) - 1 or any(c < 1 for c in counts):
        raise ValueError("need a positive sample count per leg")
    poses = [keys[0]]
    for a, b, m in zip(keys, keys[1:], counts):
        R, p = sclerp_path(a, b, np.linspace(0.0, 1.0, m + 1)[1:])
        poses.extend(Pose(R[k], p[k]) for k in range(m))
    rot_amp, trans_amp = noise
    if rot_amp > 0.0 or trans_amp > 0.0:
        rng = np.random.default_rng() if rng is None else rng
        wobbled = []
        for g in poses:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            half = 0.5 * rng.uniform(0.0, rot_amp)
            q = np.concatenate([[math.cos(half)], math.sin(half) * axis])
            d = rng.normal(size=3)
            d *= rng.uniform(0.0, trans_amp) / np.linalg.norm(d)
            wobbled.append(Pose(quat_to_rot(q) @ g.rotation,
                                g.translation + d))
        poses = wobbled
    times = dt * np.arange(len(poses))
    return Demonstration(times, tuple(poses), object_id)
