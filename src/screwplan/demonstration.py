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
from dataclasses import dataclass, field

import numpy as np

from .records import (UNITS, InputError, decode, instance, pose_from_record,
                      pose_to_record, read_document, read_lines, real, reals,
                      text, whole, wholes, write_document, write_lines)
from .screws import (Pose, ScrewDisplacement, _pose_error, _relative_log,
                     compose, exp_twists, hat, inverse, pose_errors,
                     quat_to_rot, sclerp_path, screw_from_pose)

DEFAULT_FIT_TOL = (0.02, 0.005)
DEFAULT_ROI_RADIUS = 0.15


class DemonstrationError(InputError):
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
        E = MalformedDemonstrationError
        times = np.array(reals(self.times, "times", E))
        text(self.object_id, "object_id", E)
        poses = tuple(instance(p, Pose, "pose", E) for p in self.poses)
        if len(times) != len(poses) or len(poses) < 2:
            raise E("need matching times and poses, at least 2 samples")
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

    def __post_init__(self):
        for name in ("initial", "goal"):
            instance(getattr(self, name), Pose, name, DemonstrationError)


@dataclass(frozen=True)
class ScrewSegment:
    """Maximal demonstration span fitted by one constant screw; the
    screw is the displacement from start_pose to end_pose, derived
    from them here."""

    start_index: int
    end_index: int
    start_pose: Pose
    end_pose: Pose
    screw: ScrewDisplacement = field(init=False)

    def __post_init__(self):
        if not 0 <= self.start_index < self.end_index:
            raise ValueError("segment indices must satisfy start < end")
        object.__setattr__(self, "screw", screw_from_pose(
            compose(self.end_pose, inverse(self.start_pose))))


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
    drift = abs(math.hypot(*rec["pose"]["q"]) - 1.0)
    if drift > 1e-3:
        raise BadQuaternionError(
            f"quaternion norm drift {drift:.2e} exceeds 1e-3")
    return real(rec["t"], "t", MalformedDemonstrationError), pose


def load_demonstration(source):
    """Read a line-delimited JSON demonstration file."""
    object_id, samples = read_lines(
        source, MalformedDemonstrationError,
        lambda doc: decode(doc, MalformedDemonstrationError,
                           lambda doc: text(doc["object_id"], "object_id",
                                            MalformedDemonstrationError),
                           units="m"),
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
        anchor_initial=wholes(doc["anchor_initial"], "anchor_initial",
                              MalformedModelError),
        anchor_goal=wholes(doc["anchor_goal"], "anchor_goal",
                           MalformedModelError),
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
    return ScrewSegment(whole(rec["start"], "start",
                              MalformedDemonstrationError),
                        whole(rec["end"], "end", MalformedDemonstrationError),
                        pose_from_record(rec["start_pose"]),
                        pose_from_record(rec["end_pose"]))


def load_segments(source):
    return decode(read_document(source, MalformedDemonstrationError),
                  MalformedDemonstrationError,
                  lambda doc: [_segment(rec) for rec in doc["segments"]],
                  "segments", UNITS)


# ------------------------------------------------------------- segmentation


# Interior samples scored in one stacked pass.  A run of windows costs
# one exp_twists and one pose_errors call whatever its length, but its
# stacked (n, 3, 3) temporaries grow by about half a KiB per sample and
# the windows scored past the first misfit are wasted work.  The saving
# levels off at a few hundred samples, where the temporaries (about
# 130 KiB) are of the size of a 150-sample demonstration's float rows.
_RUN_SAMPLES = 256


def _first_misfit(Rs, ps, Rl, pl, cum, a, ends, tol):
    """The first of the window ends (increasing, all after start a) whose
    window misfits, or None when every window fits.  Rs, ps are the
    stacked samples and Rl, pl the same as float rows.

    A window fits when each interior sample lies within tol (rotation
    radians, translation meters) of the constant-screw interpolant
    between the window's endpoints, at an interpolation parameter
    proportional to accumulated pose-error arc length; a window of zero
    arc length fits.  Each chord is one _relative_log, and the
    interpolants of all windows one stacked exponential over one stacked
    hat, with the arithmetic of sclerp_path and pose_errors window by
    window."""
    ends = [e for e in ends if cum[e] > cum[a]]
    if not ends:
        return None
    logs = [_relative_log(Rl[e], pl[e], Rl[a], pl[a]) for e in ends]
    xi = np.array([x for x, _ in logs])
    W = hat(xi[:, 3:])
    # window k holds samples a + 1 ... ends[k] - 1, windows one after another
    k = np.repeat(np.arange(len(ends)), np.array(ends) - a - 1)
    idx = np.concatenate([np.arange(a + 1, e) for e in ends])
    taus = (cum[idx] - cum[a]) / (cum[ends] - cum[a])[k]
    thetas = np.array([theta for _, theta in logs])
    R, p = exp_twists(thetas[k] * taus, W[k], (W @ W)[k], xi[k, :3, None])
    rot, trans = pose_errors(R @ Rs[a], R @ ps[a] + p, Rs[idx], ps[idx])
    bad = np.flatnonzero((rot > tol[0]) | (trans > tol[1]))
    return ends[k[bad[0]]] if bad.size else None


def segment_demonstration(demo, fit_tol=DEFAULT_FIT_TOL):
    """Greedy longest-fit split into constant-screw segments.

    Each window grows while every interior sample stays within fit_tol
    (rotation radians, translation meters) of the screw interpolant between
    the window endpoints; consecutive segments share their boundary sample.
    Windows from one start are scored in runs of ends, and a segment stops
    before the first window that misfits.
    """
    tol = reals(fit_tol, "fit_tol", DemonstrationError, 2)
    if min(tol) < 0.0:
        raise DemonstrationError("fit tolerances must be finite numbers >= 0")
    poses = demo.poses
    n = len(poses)
    Rs = np.stack([p.rotation for p in poses])
    ps = np.stack([p.translation for p in poses])
    Rl, pl = Rs.tolist(), ps.tolist()
    # arc length: one radian of rotation counts as one meter
    inc = [r + t for r, t in map(_pose_error, Rl, pl, Rl[1:], pl[1:])]
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    if cum[-1] < 1e-12:
        raise DegenerateDemonstrationError(
            "demonstration has fewer than 2 distinct poses")
    segments = []
    a = 0
    while a < n - 1:
        b = a + 1
        while b < n - 1:
            ends, total = [], 0
            for e in range(b + 1, n):
                total += e - a - 1
                if ends and total > _RUN_SAMPLES:
                    break
                ends.append(e)
            misfit = _first_misfit(Rs, ps, Rl, pl, cum, a, ends, tol)
            if misfit is not None:
                b = misfit - 1
                break
            b = ends[-1]
        segments.append(ScrewSegment(a, b, poses[a], poses[b]))
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
    rot_amp, trans_amp = reals(noise, "noise", ValueError, 2)
    if rot_amp < 0.0 or trans_amp < 0.0:
        raise ValueError("noise amplitudes must be finite numbers >= 0")
    poses = [keys[0]]
    for a, b, m in zip(keys, keys[1:], counts):
        R, p = sclerp_path(a, b, np.linspace(0.0, 1.0, m + 1)[1:])
        poses.extend(Pose(R[k], p[k]) for k in range(m))
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
