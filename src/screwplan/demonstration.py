"""From one recorded object manipulation to a transferable motion model.

A demonstration is a timestamped sequence of object poses. Segmentation
splits it into maximal runs that each fit a single constant screw within a
tolerance; the run boundaries become guiding poses. Guiding poses near the
demonstrated pick object anchor to it, those near the demonstrated place
pose anchor to the goal, and transfer re-expresses each anchored group
relative to a new task instance by a left action, which preserves every
relative screw inside a group.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .records import (FORMATS, UNITS, Format, InputError, decode, instance,
                      pose_from_record, pose_records, pose_to_record, real,
                      reals, text, whole, wholes)
from .screws import (Pose, ScrewDisplacement, _check_rotation, _compose,
                     _inverse, _pose_errors, _quat_pivots, _refused_rotations,
                     _relative_log, _rows, compose, exp_twists, hat, inverse,
                     sclerp_path, screw_from_pose)

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
    """A timestamped sequence of object poses, one read-only array per
    field: times (n,) seconds, strictly increasing, and the object's
    rotation (n, 3, 3) and translation (n, 3) at each sample.  The
    arrays are copied and checked once, in bulk: every sample must be a
    pose Pose accepts, and the error names the first that is not."""

    times: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    object_id: str

    def __post_init__(self):
        E = MalformedDemonstrationError
        times = np.array(reals(self.times, "times", E))
        text(self.object_id, "object_id", E)
        R = _stack(self.rotation, "rotation", (3, 3))
        p = _stack(self.translation, "translation", (3,))
        if not len(times) == len(R) == len(p) or len(times) < 2:
            raise E("need matching times and poses, at least 2 samples")
        if np.any(np.diff(times) <= 0.0):
            raise NonMonotoneTimeError("timestamps must strictly increase")
        refused = _refused_rotations(R)
        bad = refused | ~np.isfinite(p).all(axis=1)
        if bad.any():
            k = int(bad.argmax())
            if refused[k]:
                try:
                    _check_rotation(R[k].tolist())
                except ValueError as e:
                    raise E(f"sample {k}: {e}") from e
            raise E(f"sample {k}: pose translation must be finite")
        for name, a in (("times", times), ("rotation", R),
                        ("translation", p)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def poses(self):
        """The samples as Pose objects, each built when it is indexed or
        iterated."""
        return _Poses(self)


def _stack(x, name, shape):
    """x as a fresh float array of shape (n, *shape), when it holds
    numbers: not strings, bools or None."""
    try:
        a = np.array(x)
    except ValueError as e:
        raise MalformedDemonstrationError(f"{name}: {e}") from e
    if a.dtype.kind not in "fiu" or a.shape[1:] != shape \
            or a.ndim != len(shape) + 1:
        raise MalformedDemonstrationError(
            f"{name} must be numbers of shape (n, "
            f"{', '.join(map(str, shape))}), got {a.dtype} {a.shape}")
    return a.astype(float, copy=False)


class _Poses(Sequence):
    """A demonstration's samples as Pose objects, each built when it is
    indexed or iterated; the view holds the demonstration and nothing
    else."""

    __slots__ = ("_demo",)

    def __init__(self, demo):
        self._demo = demo

    def __len__(self):
        return len(self._demo.times)

    def __getitem__(self, i):
        return Pose(self._demo.rotation[i], self._demo.translation[i])


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


def _sample(rec, _):
    pose = pose_from_record(rec["pose"])
    drift = abs(math.hypot(*rec["pose"]["q"]) - 1.0)
    if drift > 1e-3:
        raise BadQuaternionError(
            f"quaternion norm drift {drift:.2e} exceeds 1e-3")
    return real(rec["t"], "t", MalformedDemonstrationError), pose


def _demo_header(doc):
    return decode(doc, MalformedDemonstrationError,
                  lambda doc: text(doc["object_id"], "object_id",
                                   MalformedDemonstrationError), units="m")


def _demo_from_lines(object_id, samples):
    times, poses = zip(*samples) if samples else ((), ())
    return Demonstration(
        times, np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
        np.array([p.translation for p in poses]).reshape(-1, 3), object_id)


def _demo_to_lines(demo):
    return [{"object_id": demo.object_id, "units": "m"},
            *({"t": t, "pose": pose} for t, pose in zip(
                demo.times.tolist(),
                pose_records(demo.rotation, demo.translation)))]


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


def _screw_record(screw):
    return {"axis": [float(x) for x in screw.axis],
            "moment": [float(x) for x in screw.moment],
            "pitch": None if math.isinf(screw.pitch) else float(screw.pitch),
            "magnitude": float(screw.magnitude)}


def _segments_to_record(segments, object_id="", fit_tol=None):
    """The boundary poses are the source of truth; each segment's screw
    parameters are included for reading convenience (pitch null means a
    pure translation) and are reconstructed from the poses on load."""
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
    return doc


def _segment(rec):
    return ScrewSegment(whole(rec["start"], "start",
                              MalformedDemonstrationError),
                        whole(rec["end"], "end", MalformedDemonstrationError),
                        pose_from_record(rec["start_pose"]),
                        pose_from_record(rec["end_pose"]))


def _segments_from_record(doc):
    return decode(doc, MalformedDemonstrationError,
                  lambda doc: [_segment(rec) for rec in doc["segments"]],
                  "segments", UNITS)


def _chained(segments, path):
    """Refuses no segments, or a segment that does not start where the
    one before it ends."""
    if not segments:
        raise MalformedDemonstrationError(f"{path}: no segments")
    for n, (a, b) in enumerate(zip(segments, segments[1:]), start=1):
        if b.start_index != a.end_index:
            raise MalformedDemonstrationError(
                f"{path}: segment {n} starts at {b.start_index}, not at "
                f"the previous end {a.end_index}")


FORMATS.update(
    demonstration=Format(MalformedDemonstrationError, _demo_to_lines,
                         _demo_from_lines, lines=(_demo_header, _sample)),
    constraint_model=Format(MalformedModelError, constraint_model_to_record,
                            constraint_model_from_record, indent=2),
    segments=Format(MalformedDemonstrationError, _segments_to_record,
                    _segments_from_record, check=_chained))


# ------------------------------------------------------------- segmentation


# Interior samples scored in one stacked pass.  A run of windows costs
# one pass of row arithmetic whatever its length, but its temporaries
# (rows of up to 16 floats per sample) grow by about 0.4 KiB per sample
# and the windows scored past the first misfit are wasted work.  The
# saving levels off at a few hundred samples, where the temporaries
# (about 100 KiB) are of the size of a 150-sample demonstration's float
# rows.
_RUN_SAMPLES = 256


def _window_errors(Rl, pl, P, q, cum, a, ends):
    """Per-sample (rotation, translation) deviations from the constant-
    screw interpolant of each window from start a to one of ends
    (increasing, all of positive arc), and each sample's window end:
    the windows' interior samples a + 1 ... end - 1, one window after
    another.  Rl, pl are the samples as float rows, and P and q their
    translations (3, n) and unit quaternions (4, n) as rows.

    Each chord is one _relative_log [v; w], theta, and its interpolant
    at tau is exp(phi [v; w]) applied to the start, phi = tau theta.
    Rodrigues' formula and its integral (Lynch & Park, Modern Robotics,
    2017, section 3.3) put the start's translation p_a at
    p_a + phi D + sin phi E + (1 - cos phi) F, with D = v + w x (w x v),
    E = w x p_a - w x (w x v) and F = w x v + w x (w x p_a), and its
    rotation relative to the start at the quaternion (cos phi/2,
    sin phi/2 w).  A sample's rotation error is the angle of that
    quaternion's conjugate times the sample's quaternion relative to the
    start, 2 atan2(|e_v|, |e_w|); for a pure translation (w = 0) both
    parts scale by cos phi/2, which leaves the angle alone."""
    a0, a1, a2 = pl[a]
    rows, first = [], a + 1
    for e in ends:
        xi, theta = _relative_log(Rl[e], pl[e], Rl[a], pl[a])
        v0, v1, v2, w0, w1, w2 = xi.tolist()
        # w x v, w x (w x v), w x p_a and w x (w x p_a) on floats
        u0, u1, u2 = w1 * v2 - w2 * v1, w2 * v0 - w0 * v2, w0 * v1 - w1 * v0
        uu0, uu1, uu2 = (w1 * u2 - w2 * u1, w2 * u0 - w0 * u2,
                         w0 * u1 - w1 * u0)
        r0, r1, r2 = w1 * a2 - w2 * a1, w2 * a0 - w0 * a2, w0 * a1 - w1 * a0
        # first: the sample index of a window's first entry, less the
        # entry's position in the stacked samples
        rows.append((theta, cum[e] - cum[a], e, first,
                     v0 + uu0, v1 + uu1, v2 + uu2,
                     r0 - uu0, r1 - uu1, r2 - uu2,
                     u0 + w1 * r2 - w2 * r1, u1 + w2 * r0 - w0 * r2,
                     u2 + w0 * r1 - w1 * r0, w0, w1, w2))
        first -= e - a - 1
    # one column per interior sample of each window
    cols = np.repeat(np.array(rows, dtype=float).T,
                     [e - a - 1 for e in ends], axis=1)
    idx = (np.arange(cols.shape[1]) + cols[3]).astype(np.intp)
    theta, span, end = cols[:3]
    D, E, F, W = cols[4:7], cols[7:10], cols[10:13], cols[13:16]
    w0, w1, w2 = W
    phi = theta * ((cum[idx] - cum[a]) / span)
    sh, ch = np.sin(0.5 * phi), np.cos(0.5 * phi)
    d = P[:, a, None] - P.take(idx, axis=1)
    d += phi * D
    # sin phi, and 2 sin^2(phi/2) == 1 - cos phi without cancellation
    d += (2.0 * sh * ch) * E
    d += (2.0 * (sh * sh)) * F
    trans = np.sqrt((d * d).sum(axis=0))
    # the samples' quaternions relative to the start, q_s q_a^*
    aw, ax, ay, az = q[:, a].tolist()
    Q = np.array([[aw, ax, ay, az], [-ax, aw, -az, ay], [-ay, az, aw, -ax],
                  [-az, -ay, ax, aw]]) @ q.take(idx, axis=1)
    Qw, Qx, Qy, Qz = Q
    Qv = Q[1:]
    # (cos phi/2, -sin phi/2 w) times (Qw, Qv)
    ew = ch * Qw + sh * (W * Qv).sum(axis=0)
    ev = ch * Qv - sh * (Qw * W + np.array([w1 * Qz - w2 * Qy,
                                             w2 * Qx - w0 * Qz,
                                             w0 * Qy - w1 * Qx]))
    rot = 2.0 * np.arctan2(np.sqrt((ev * ev).sum(axis=0)), np.abs(ew))
    return rot, trans, end


def _first_misfit(Rl, pl, P, q, cum, a, ends, tol):
    """The first of the window ends (increasing, all after start a) whose
    window misfits, or None when every window fits (see _window_errors
    for the arguments).

    A window fits when each interior sample lies within tol (rotation
    radians, translation meters) of the constant-screw interpolant
    between the window's endpoints, at an interpolation parameter
    proportional to accumulated pose-error arc length; a window of zero
    arc length fits."""
    ends = [e for e in ends if cum[e] > cum[a]]
    if not ends:
        return None
    rot, trans, end = _window_errors(Rl, pl, P, q, cum, a, ends)
    bad = np.flatnonzero((rot > tol[0]) | (trans > tol[1]))
    return int(end[bad[0]]) if bad.size else None


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
    R, p = demo.rotation, demo.translation
    n = len(R)
    Rl, pl = R.tolist(), p.tolist()
    P = np.ascontiguousarray(p.T)
    q = _quat_pivots(R).T
    q /= np.sqrt((q * q).sum(axis=0))
    # arc length: one radian of rotation counts as one meter
    rot, trans = _pose_errors(R[:-1], p[:-1], R[1:], p[1:])
    cum = np.concatenate([[0.0], np.cumsum(rot + trans)])
    if cum[-1] < 1e-12:
        raise DegenerateDemonstrationError(
            "demonstration has fewer than 2 distinct poses")
    segments = []
    a, start = 0, Pose(R[0], p[0])
    while a < n - 1:
        b = a + 1
        while b < n - 1:
            ends, total = [], 0
            for e in range(b + 1, n):
                total += e - a - 1
                if ends and total > _RUN_SAMPLES:
                    break
                ends.append(e)
            misfit = _first_misfit(Rl, pl, P, q, cum, a, ends, tol)
            if misfit is not None:
                b = misfit - 1
                break
            b = ends[-1]
        end = Pose(R[b], p[b])
        segments.append(ScrewSegment(a, b, start, end))
        a, start = b, end
    return segments


# --------------------------------------------- guiding poses and transfer


def extract_guiding_poses(segments, instance, roi_radius=DEFAULT_ROI_RADIUS):
    """Segment boundaries as guiding poses, anchored to the instance.

    The anchored-to-initial set is the longest prefix of guiding poses whose
    translation lies within roi_radius of the initial object; the goal set
    is the corresponding suffix around the goal pose. When the two regions
    overlap, the overlap splits at the first pose strictly nearer the goal,
    clamped so both sets stay nonempty. roi_radius is a finite number
    of meters >= 0.
    """
    if not segments:
        raise DemonstrationError("need at least one segment")
    roi_radius = real(roi_radius, "roi_radius", DemonstrationError)
    if roi_radius < 0.0:
        raise DemonstrationError("roi_radius must be a finite number >= 0")
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
    to_initial = _compose(*_rows(new_instance.initial),
                          *_inverse(*_rows(model.source.initial)))
    to_goal = _compose(*_rows(new_instance.goal),
                       *_inverse(*_rows(model.source.goal)))
    last_initial = model.anchor_initial[-1]
    first_goal = model.anchor_goal[0]
    run = first_goal - last_initial - 1
    cut = last_initial + 1 + (run + 1) // 2
    return [Pose(*_compose(*(to_initial if i < cut else to_goal), *_rows(g)))
            for i, g in enumerate(model.guiding_poses)]


# ---------------------------------------------------------------- synthesis


def synthesize_demonstration(key_poses, samples_per_leg=50,
                             object_id="object", dt=0.02,
                             noise=(0.0, 0.0), rng=None):
    """Sample a piecewise-constant-screw path through key poses.

    samples_per_leg is a whole number >= 1 (same for every leg) or a list
    of them, one per leg; each leg contributes that many new samples, so
    key poses land exactly on samples; dt > 0 is the sample spacing in
    seconds. noise = (max rotation radians, max translation meters)
    applies an independent bounded perturbation to every sample: a
    rotation about a random world axis and a shift in a random
    direction, drawn sample by sample and applied to all at once.
    """
    keys = list(key_poses)
    if len(keys) < 2:
        raise ValueError("need at least two key poses")
    if isinstance(samples_per_leg, (list, tuple, np.ndarray)):
        counts = wholes(samples_per_leg, "samples_per_leg", ValueError,
                        len(keys) - 1, low=1)
    else:
        counts = [whole(samples_per_leg, "samples_per_leg", ValueError,
                        low=1)] * (len(keys) - 1)
    dt = real(dt, "dt", ValueError)
    if dt <= 0.0:
        raise ValueError("dt must be a finite number > 0")
    rot_amp, trans_amp = reals(noise, "noise", ValueError, 2)
    if rot_amp < 0.0 or trans_amp < 0.0:
        raise ValueError("noise amplitudes must be finite numbers >= 0")
    legs = [sclerp_path(a, b, np.linspace(0.0, 1.0, m + 1)[1:])
            for a, b, m in zip(keys, keys[1:], counts)]
    R = np.concatenate([keys[0].rotation[None], *(R for R, _ in legs)])
    p = np.concatenate([keys[0].translation[None], *(p for _, p in legs)])
    if rot_amp > 0.0 or trans_amp > 0.0:
        rng = np.random.default_rng() if rng is None else rng
        # per sample in turn an axis, an angle, a direction and a length:
        # standard_normal and random draw what normal and uniform(0, amp)
        # do, amp times random() being uniform's own arithmetic
        axes, angles, shifts, lengths = map(np.array, zip(*[
            (rng.standard_normal(3), rng.random(), rng.standard_normal(3),
             rng.random()) for _ in range(len(R))]))
        W = hat(axes / np.linalg.norm(axes, axis=1)[:, None])
        wobble, _ = exp_twists(rot_amp * angles, W, W @ W, np.zeros((3, 1)))
        R = wobble @ R
        p = p + shifts * (trans_amp * lengths
                          / np.linalg.norm(shifts, axis=1))[:, None]
    return Demonstration(dt * np.arange(len(R)), R, p, object_id)
