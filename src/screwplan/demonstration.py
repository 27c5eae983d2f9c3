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
from .screws import (_ORTHO_TOL, ROT_IDENTITY_TOL, Pose, ScrewDisplacement,
                     _check_rotation, _compose, _inverse, _pose_errors,
                     _quat_pivots, _refused_rotations, _relative_log, _rows,
                     compose, exp_twists, hat, inverse, sclerp_path,
                     screw_from_pose)

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


@dataclass(frozen=True, eq=False)
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


# Cells of one window grid: the windows a run scores times the interior
# samples of its longest.  A run costs one stacked pass whatever its
# size, but its temporaries grow with the grid (about 17 floats a cell,
# numpy's broadcasting buffers included) and the windows scored past
# the first misfit are wasted work.  The saving levels off near a
# thousand cells, where one grid's temporaries take about 140 KiB and
# segmenting a 150-sample demonstration peaks at about 190 KiB.
_RUN_CELLS = 1024

# Segmentation keeps to the numpy kernels the rest of the library
# already runs: no np.tan, no np.where or integer comparison over
# broadcast shapes, no matrix product with a transposed operand.  Each
# new kernel pages in 64-200 KiB of library code on its first call,
# which shows in every process's peak resident memory.


def _cross(u, v):
    """u x v for 3-vectors given as their three rows (arrays of shapes
    that broadcast, or floats), as one array."""
    return np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _chords(R, p, a, e0):
    """_relative_log of the chord from start a to each sample e0 ... n - 1
    of the stacks R (n, 3, 3), p (n, 3): v (3, m), w (3, m), theta (m,),
    and which chords it refuses (m,).  Its arithmetic row by row, to
    rounding: the one product R_e R_a^T and p_e - R_e R_a^T p_a entry by
    entry, the rotation check, the pivot quaternion, the unit-axis check
    and the series below 1e-4; below ROT_IDENTITY_TOL a pure translation
    [p / |p|; 0], |p|, with |p| taken as s |p / s| for s the largest
    entry (how _log takes a subnormal length; no square underflows), and
    the zero chord [0; z], 0 at p = 0."""
    S, Ra = R[e0:], R[a]
    Rr = (S[:, :, None, 0] * Ra[:, 0] + S[:, :, None, 1] * Ra[:, 1]
          + S[:, :, None, 2] * Ra[:, 2])
    t0, t1, t2 = _inverse(Ra.tolist(), p[a].tolist())[1]
    P = (S[:, :, 0] * t0 + S[:, :, 1] * t1 + S[:, :, 2] * t2 + p[e0:]).T
    refused = _refused_rotations(Rr)
    q = _quat_pivots(Rr).T
    q[:, q[0] < 0.0] *= -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.sqrt((q[1:] * q[1:]).sum(axis=0))
        theta = 2.0 * np.arctan2(n, q[0])
        still = theta < ROT_IDENTITY_TOL
        w = q[1:] / n
        refused |= ~still & ~(abs((w * w).sum(axis=0) - 1.0) <= _ORTHO_TOL)
        # the scalar log's math.tan (and no numpy tan kernel)
        c2 = 1.0 / theta - 0.5 / np.array(
            list(map(math.tan, (0.5 * theta).tolist())))
        series = theta < 1e-4
        c2[series] = theta[series] / 12.0 + theta[series] ** 3 / 720.0
        v = P / theta - 0.5 * _cross(w, P) \
            + c2 * (w * (w * P).sum(axis=0) - P)
        T = P[:, still]
        s = abs(T).max(axis=0)
        T /= s
        u = np.sqrt((T * T).sum(axis=0))
        v[:, still], w[:, still], theta[still] = T / u, 0.0, s * u
    zero = np.flatnonzero(still)[s == 0.0]
    v[:, zero], theta[zero] = 0.0, 0.0
    w[2, zero] = 1.0
    return v, w, theta, refused


class _Windows:
    """The windows of positive arc length, with interior samples, from
    segment start a: window k ends at e0 + k and holds the base + k
    samples a + 1 ... e0 + k - 1, base = e0 - a - 1.  Built once per
    start from the stacks R, p, the samples' unit quaternions q (4, n)
    and their arc lengths cum: each window's chord rows and each
    sample's rows, so that a run of windows is scored by broadcasting.

    Each chord is one _relative_log [v; w], theta (_chords), and its
    interpolant at tau is exp(phi [v; w]) applied to the start, phi =
    tau theta.  Rodrigues' formula and its integral (Lynch & Park,
    Modern Robotics, 2017, section 3.3) put the start's translation p_a
    at p_a + phi D + sin phi E + (1 - cos phi) F, with D = v + w x (w x
    v), E = w x p_a - w x (w x v) and F = w x v + w x (w x p_a), and its
    rotation relative to the start at the quaternion (cos phi/2, sin
    phi/2 w).  A sample's rotation error is the angle of that
    quaternion's conjugate times the sample's quaternion relative to the
    start, 2 atan2(|e_v|, |e_w|); for a pure translation (w = 0) both
    parts scale by cos phi/2, which leaves the angle alone."""

    def __init__(self, R, p, q, cum, a, e0):
        self.base = e0 - a - 1
        v, w, theta, self.refused = _chords(R, p, a, e0)
        pa = p[a].tolist()
        u = _cross(w, v)
        uu = _cross(w, u)
        r = _cross(w, pa)
        # per window: theta, its arc length, D, E, F and w, as (14, m, 1)
        self.chord = np.concatenate([
            theta[None], (cum[e0:] - cum[a])[None], v + uu, r - uu,
            u + _cross(w, r), w])[:, :, None]
        # per sample s = a + 1 ... n - 2: its quaternion relative to the
        # start q_s q_a^*, p_a - p_s and its arc length from the start,
        # as (8, 1, n - a - 2)
        aw, ax, ay, az = q[:, a].tolist()
        s = slice(a + 1, len(p) - 1)
        self.sample = np.concatenate([
            np.array([[aw, ax, ay, az], [-ax, aw, -az, ay],
                      [-ay, az, aw, -ax], [-az, -ay, ax, aw]]) @ q[:, s],
            np.array(pa)[:, None] - p[s].T,
            (cum[s] - cum[a])[None]])[:, None]

    def errors(self, lo, hi):
        """Per-sample (rotation, translation) deviations of windows lo ...
        hi - 1 from their interpolants, at an interpolation parameter
        proportional to arc length, on a grid of a row per window and a
        column per interior sample of the last (base + hi - 1); a cell
        past its window's interior holds the interpolant's
        extrapolation."""
        theta, span = self.chord[:2, lo:hi]
        D, E, F, W = self.chord[2:, lo:hi].reshape(4, 3, hi - lo, 1)
        S = self.sample[:, :, :self.base + hi - 1]
        # in place where that keeps the grid's temporaries few
        phi = S[7] / span
        phi *= theta
        sh, ch = np.sin(0.5 * phi), np.cos(0.5 * phi)
        d = phi * D
        d += S[4:7]
        # sin phi, and 2 sin^2(phi/2) == 1 - cos phi without cancellation,
        # each in phi's buffer
        d += np.multiply(2.0 * sh, ch, out=phi) * E
        d += np.multiply(2.0 * sh, sh, out=phi) * F
        d *= d
        trans = np.sqrt(d.sum(axis=0))
        # (cos phi/2, -sin phi/2 w) times (Qw, Qv), ev in d's buffer
        Qw, Qv = S[0], S[1:4]
        ew = (W * Qv).sum(axis=0)
        ew *= sh
        ew += ch * Qw
        ev = np.multiply(Qw, W, out=d)
        ev += _cross(W, Qv)
        ev *= sh
        np.subtract(ch * Qv, ev, out=ev)
        ev *= ev
        return (2.0 * np.arctan2(np.sqrt(ev.sum(axis=0)), np.abs(ew)), trans)


def _segment_end(R, p, q, cum, a, tol):
    """The end of the longest window from start a that fits tol (see
    segment_demonstration for the rule; R, p, q and cum as _Windows
    takes them).  Its windows are scored in runs of consecutive ends,
    each run on one grid of at most _RUN_CELLS cells (and at least one
    window); a window whose chord _relative_log refuses raises its
    ValueError when the greedy reaches it."""
    n = len(R)
    # windows of zero arc length fit, and they come first: cum does not
    # decrease
    e0 = max(a + 2, a + 1 + int(np.count_nonzero(cum[a + 1:] <= cum[a])))
    if e0 >= n:
        return n - 1
    windows = _Windows(R, p, q, cum, a, e0)
    base, lo = windows.base, 0
    while lo < n - e0:
        # the most windows lo ... hi - 1 whose rows times columns, (hi -
        # lo) (g + hi - lo) with g = base + lo - 1, stay within the bound
        g = base + lo - 1
        hi = min(max(lo + (math.isqrt(g * g + 4 * _RUN_CELLS) - g) // 2,
                     lo + 1), n - e0)
        rot, trans = windows.errors(lo, hi)
        out = (rot > tol[0]) | (trans > tol[1])
        # column j lies in window k's interior when j < base + k (as
        # floats, for the kernels already in use)
        out &= np.arange(base + hi - 1.0) < np.arange(base + lo, base + hi,
                                                      dtype=float)[:, None]
        stop = out.any(axis=1) | windows.refused[lo:hi]
        if stop.any():
            k = lo + int(stop.argmax())
            if windows.refused[k]:
                # the same arithmetic on one window raises its ValueError
                _relative_log(R[e0 + k].tolist(), p[e0 + k].tolist(),
                              R[a].tolist(), p[a].tolist())
            return e0 + k - 1
        lo = hi
    return n - 1


def segment_demonstration(demo, fit_tol=DEFAULT_FIT_TOL):
    """Greedy longest-fit split into constant-screw segments.

    Each window grows while every interior sample stays within fit_tol
    (rotation radians, translation meters) of the constant-screw
    interpolant between the window endpoints, at an interpolation
    parameter proportional to accumulated pose-error arc length; a
    window of zero arc length fits.  Consecutive segments share their
    boundary sample, and a segment stops before the first window that
    misfits.
    """
    tol = reals(fit_tol, "fit_tol", DemonstrationError, 2)
    if min(tol) < 0.0:
        raise DemonstrationError("fit tolerances must be finite numbers >= 0")
    R, p = demo.rotation, demo.translation
    n = len(R)
    q = np.ascontiguousarray(_quat_pivots(R).T)
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
        b = _segment_end(R, p, q, cum, a, tol)
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
