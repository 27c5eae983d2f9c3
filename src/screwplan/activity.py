"""Kinematic execution and scoring of whole construction activities.

An activity strings one demonstrated skill across every goal of a
layout.  Pick poses come off a stack, the constraint model is
transferred to each task instance in build order, and the planner
drives the arm through the resulting guiding poses from wherever the
previous placement left it.  The base either stays fixed or relocates
every few placements with seeded noise.  Everything downstream of the
plan is bookkeeping: achieved object poses, per-placement errors, and
a report whose results section round-trips through JSON byte for byte
under a fixed seed.
"""

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .demonstration import (ConstraintModel, TaskInstance,
                            constraint_model_from_record,
                            constraint_model_to_record, transfer_constraints)
from .kinematics import (PANDA_READY, RobotModel, panda_model,
                         robot_from_record, robot_to_record)
from .layouts import (LayoutSpec, layout_goals, layout_spec_from_record,
                      layout_spec_to_record, pick_stack, yaw_rotation)
from .planner import Outcome, PlannerConfig, plan_through_guiding_poses
from . import records
from .records import (FORMATS, UNITS, Format, InputError, decode, flag,
                      instance, pose_from_record, pose_to_record, real, reals,
                      text, whole, wholes)
from .screws import Pose, _Rows, compose, inverse, pose_error

# placement is scored on translation distance and heading alone; the
# full rotation error is recorded but does not gate success
POSITION_TOL = 0.0075
YAW_TOL = math.radians(2.0)
# a swept tile straddles the ceiling plane only with one corner more
# than this far (meters) below it and another more than this far above,
# so a corner the plane holds up to rounding decides nothing
STRADDLE_TOL = 1e-9


class ActivityError(InputError):
    pass


class InvalidActivitySpecError(ActivityError):
    pass


class MalformedReportError(ActivityError):
    pass


# ----------------------------------------------------------------- types


@dataclass(frozen=True)
class PickStation:
    """Where fresh objects come from: base pose of the supply stack.

    With in_base_frame the stack rides the platform: base is read in
    the robot's base frame and re-expressed from the current station at
    pick time, so a relocating base keeps its supply within reach.
    restock caps the pile at that many objects and refills it, cycling
    the pick heights, instead of stacking the whole activity's supply.
    """

    base: Pose
    in_base_frame: bool = False
    restock: int = None

    def __post_init__(self):
        instance(self.base, Pose, "base", InvalidActivitySpecError)
        flag(self.in_base_frame, "in_base_frame", InvalidActivitySpecError)
        object.__setattr__(self, "restock", whole(
            self.restock, "restock", InvalidActivitySpecError, low=1,
            null=True))


def pick_sequence(station, count, dims):
    """The pick pose (or base-frame offset) for each of count objects."""
    if station.restock is None:
        return pick_stack(station.base, count, dims)
    pile = pick_stack(station.base, station.restock, dims)
    return [pile[n % station.restock] for n in range(count)]


@dataclass(frozen=True)
class FixedBase:
    base: Pose

    def __post_init__(self):
        instance(self.base, Pose, "base", InvalidActivitySpecError)


@dataclass(frozen=True)
class MovingBase:
    """Relocate the base every few placements.

    Station m sits at initial o step^m, perturbed by uniform noise: a
    ground-plane offset within radius and a yaw within +-yaw_range,
    drawn from a generator seeded once per run.  The seed is part of
    the policy so a rerun reproduces every station exactly.
    stations_per_lap wraps the station index so a layered build walks
    the same line of stations once per course; noise stays fresh on
    every visit.
    """

    initial: Pose
    step: Pose
    seed: int
    relocate_every: int = 3
    radius: float = 0.05
    yaw_range: float = math.radians(5.0)
    stations_per_lap: int = None

    def __post_init__(self):
        E = InvalidActivitySpecError
        for name in ("initial", "step"):
            instance(getattr(self, name), Pose, name, E)
        object.__setattr__(self, "seed", whole(self.seed, "seed", E))
        object.__setattr__(self, "relocate_every", whole(
            self.relocate_every, "relocate_every", E, low=1))
        object.__setattr__(self, "stations_per_lap", whole(
            self.stations_per_lap, "stations_per_lap", E, low=1, null=True))
        for name in ("radius", "yaw_range"):
            x = real(getattr(self, name), name, E)
            if x < 0.0:
                raise E(f"{name} must be >= 0")
            object.__setattr__(self, name, x)


@dataclass(frozen=True)
class ActivitySpec:
    """Everything a full run needs.

    grasp_offset is the end-effector pose relative to the held object,
    identity when the hand frame coincides with the object frame.  The
    layout's dims must describe the same object the demonstration
    manipulated; the harness cannot check that, the caller owns it.
    """

    layout: LayoutSpec
    demo_model: ConstraintModel
    pick_station: PickStation
    base_policy: object
    robot: RobotModel = field(default_factory=panda_model)
    grasp_offset: Pose = field(default_factory=Pose.identity)
    planner_config: PlannerConfig = field(default_factory=PlannerConfig)
    q_start: np.ndarray = field(default_factory=lambda: PANDA_READY.copy())

    def __post_init__(self):
        E = InvalidActivitySpecError
        for name, kind in (("layout", LayoutSpec),
                           ("demo_model", ConstraintModel),
                           ("pick_station", PickStation),
                           ("robot", RobotModel), ("grasp_offset", Pose),
                           ("planner_config", PlannerConfig)):
            instance(getattr(self, name), kind, name, E)
        if not isinstance(self.base_policy, (FixedBase, MovingBase)):
            raise E("base_policy must be FixedBase or MovingBase")
        object.__setattr__(self, "q_start", np.array(reals(
            self.q_start, "q_start", E, self.robot.n_joints)))


@dataclass(frozen=True)
class PlacementResult:
    index: tuple
    goal: Pose
    achieved: Pose
    position_error: float
    yaw_error: float
    rotation_error: float
    success: bool
    trajectory_outcome: Outcome
    steps: int


@dataclass(frozen=True)
class ActivityReport:
    robot: str
    layout_kind: str
    mode2_enabled: bool
    goals_total: int
    placements: tuple
    bricks_placed_before_failure: int
    mean_position_error: object
    max_yaw_error: object
    runtime_seconds: float
    trajectories: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PairedReport:
    ours: ActivityReport
    baseline: ActivityReport


# ----------------------------------------------------------------- scoring


def evaluate_placement(achieved, goal):
    """(position error, yaw error, rotation error, success flag).

    Position is plain translation distance, yaw is the heading
    difference about the goal's own z axis, rotation is the full
    geodesic angle.  Success gates on position and yaw only.
    """
    rot, dist = pose_error(achieved, goal)
    rel = goal.rotation.T @ achieved.rotation
    yaw = abs(math.atan2(rel[1, 0], rel[0, 0]))
    return dist, yaw, rot, _success(Outcome.REACHED, dist, yaw)


def _success(outcome, position_error, yaw_error):
    """A placement succeeds when its trajectory reached the goal and it
    landed within POSITION_TOL and YAW_TOL."""
    return bool(outcome is Outcome.REACHED and position_error < POSITION_TOL
                and yaw_error < YAW_TOL)


def _aggregates(placements):
    """The report fields derived from its placements: the placements
    whose trajectory reached its goal, and over those the mean position
    error and the largest yaw error (None when there are none)."""
    done = [p for p in placements if p.trajectory_outcome is Outcome.REACHED]
    pos_errs = [p.position_error for p in done]
    yaw_errs = [p.yaw_error for p in done]
    return dict(
        bricks_placed_before_failure=len(done),
        mean_position_error=float(np.mean(pos_errs)) if pos_errs else None,
        max_yaw_error=max(yaw_errs) if yaw_errs else None)


def attached_object_poses(traj, grasp_offset=None):
    """Object poses over the carry: from the step that reached the first
    guiding pose (the pick) through the final step (the place)."""
    start = traj.segment_starts[1] if len(traj.segment_starts) > 1 else 0
    inv = None if grasp_offset is None else inverse(grasp_offset)
    flanges = _Rows(Pose, traj.rotation, traj.translation)[start:]
    return [f if inv is None else compose(f, inv) for f in flanges]


# ----------------------------------------------------------------- running


def _station_pose(policy, m, rng):
    if policy.stations_per_lap is not None:
        m = m % policy.stations_per_lap
    pose = policy.initial
    for _ in range(m):
        pose = compose(pose, policy.step)
    r = policy.radius * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    dyaw = policy.yaw_range * (2.0 * rng.random() - 1.0)
    yawed = compose(pose, yaw_rotation(dyaw))
    shift = np.array([r * math.cos(phi), r * math.sin(phi), 0.0])
    return Pose(yawed.rotation, yawed.translation + shift)


def run_activity(spec, keep_trajectories=False):
    """Execute every placement of the layout in build order.

    Each placement transfers the constraint model to its task instance,
    converts object guiding poses to end-effector goals through the
    grasp offset, and plans from the configuration the previous
    placement ended in.  The run stops at the first trajectory that
    does not reach its goal; that placement is still recorded.
    Aggregate errors cover the reached placements only.
    """
    t0 = time.perf_counter()
    goals = layout_goals(spec.layout)
    picks = pick_sequence(spec.pick_station, len(goals), spec.layout.dims)
    inv_grasp = inverse(spec.grasp_offset)
    policy = spec.base_policy
    rng = (np.random.default_rng(policy.seed)
           if isinstance(policy, MovingBase) else None)
    q = spec.q_start
    model = None
    placements = []
    trajectories = []
    for n, goal in enumerate(goals):
        if isinstance(policy, FixedBase):
            if model is None:
                model = replace(spec.robot, base_pose=policy.base)
        elif n % policy.relocate_every == 0:
            station = _station_pose(policy, n // policy.relocate_every, rng)
            model = replace(spec.robot, base_pose=station)
        pick = (compose(model.base_pose, picks[n])
                if spec.pick_station.in_base_frame else picks[n])
        instance = TaskInstance(initial=pick, goal=goal.pose)
        guiding = transfer_constraints(spec.demo_model, instance)
        ee_goals = [compose(g, spec.grasp_offset) for g in guiding]
        traj = plan_through_guiding_poses(q, ee_goals, model,
                                          spec.planner_config)
        achieved = compose(traj.final_pose, inv_grasp)
        dist, yaw, rot, _ = evaluate_placement(achieved, instance.goal)
        placements.append(PlacementResult(
            index=(goal.i, goal.j, goal.k), goal=instance.goal,
            achieved=achieved, position_error=dist, yaw_error=yaw,
            rotation_error=rot, success=_success(traj.outcome, dist, yaw),
            trajectory_outcome=traj.outcome, steps=len(traj)))
        if keep_trajectories:
            trajectories.append(traj)
        if traj.outcome is not Outcome.REACHED:
            break
        q = traj.final_q
    return ActivityReport(
        robot=spec.robot.name,
        layout_kind=spec.layout.kind.value,
        mode2_enabled=spec.planner_config.mode2_enabled,
        goals_total=len(goals),
        placements=tuple(placements),
        **_aggregates(placements),
        runtime_seconds=time.perf_counter() - t0,
        trajectories=tuple(trajectories) if keep_trajectories else None)


def compare_baseline(spec):
    """The same activity twice, with and without limit recovery.

    Seeds live in the spec, so both runs see identical stations and
    differ only in the planner's mode switching.
    """
    ours = run_activity(replace(
        spec, planner_config=replace(spec.planner_config,
                                     mode2_enabled=True)))
    baseline = run_activity(replace(
        spec, planner_config=replace(spec.planner_config,
                                     mode2_enabled=False)))
    return PairedReport(ours=ours, baseline=baseline)


# ---------------------------------------------------------------- ceiling


@dataclass(frozen=True)
class FrameGeometry:
    """A rectangular ceiling opening: pose of its center (z normal to
    the ceiling plane, x and y along the edges) and the clear extents."""

    pose: Pose
    opening_length: float
    opening_breadth: float

    def __post_init__(self):
        E = InvalidActivitySpecError
        instance(self.pose, Pose, "pose", E)
        for name in ("opening_length", "opening_breadth"):
            x = real(getattr(self, name), name, E)
            if x <= 0.0:
                raise E(f"{name} must be positive")
            object.__setattr__(self, name, x)


def _cuboid_corners(dims):
    half = np.array([dims.length, dims.breadth, dims.width]) / 2.0
    signs = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                      for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    return signs * half


# the 12 edges as (first, second) corner indices differing in one sign bit
_EDGE_ENDS = np.array([(i, j) for i in range(8) for j in range(i + 1, 8)
                       if bin(i ^ j).count("1") == 1]).T
_BOTTOM_CORNERS = (0, 2, 4, 6)


def evaluate_ceiling(tile_poses, dims, frame):
    """Geometric pass/fail for a tile carried through a ceiling opening.

    Succeeds iff at every pose whose cuboid straddles the frame plane
    (a corner more than STRADDLE_TOL below it and another more than
    STRADDLE_TOL above) the cross-section (polygon cut by the plane)
    lies inside the opening, and the final pose lies flat on the lip:
    tilt below the yaw tolerance, bottom corners within the position
    tolerance of the plane, center over the opening.  Support is scored
    by pose, not statics.  The poses (any iterable) are scored in one
    stacked pass.
    """
    poses = list(tile_poses)
    if not poses:
        raise InvalidActivitySpecError("need at least one tile pose")
    bad = [k for k, pose in enumerate(poses) if not isinstance(pose, Pose)]
    if bad:
        raise InvalidActivitySpecError(f"tile pose {bad[0]} is not a Pose")
    inv_frame = inverse(frame.pose)
    Rf, pf = inv_frame.rotation, inv_frame.translation
    corners = _cuboid_corners(dims)
    hl, hb = frame.opening_length / 2.0, frame.opening_breadth / 2.0
    # every corner of every pose in the frame: corners (Rf Rs)^T + Rf ps + pf
    R = Rf @ np.array([pose.rotation for pose in poses])
    t = np.array([pose.translation for pose in poses]) @ Rf.T + pf
    pts = corners @ R.transpose(0, 2, 1) + t[:, None]
    z = pts[..., 2]
    up = z > 0.0
    i, j = _EDGE_ENDS
    # edges of straddling poses with ends either side of the plane,
    # picked before dividing, so that zi != zj
    k, e = np.nonzero((up[:, i] != up[:, j])
                      & ((z.min(axis=1) < -STRADDLE_TOL)
                         & (z.max(axis=1) > STRADDLE_TOL))[:, None])
    zi, zj = z[k, i[e]], z[k, j[e]]
    start = pts[k, i[e], :2]
    cut = start + (zi / (zi - zj))[:, None] * (pts[k, j[e], :2] - start)
    if (np.abs(cut) > (hl, hb)).any():
        return False
    final = compose(inv_frame, poses[-1])
    tilt = math.acos(max(-1.0, min(1.0, final.rotation[2, 2])))
    if tilt > YAW_TOL:
        return False
    pts = final.apply(corners)
    if any(abs(pts[i, 2]) > POSITION_TOL for i in _BOTTOM_CORNERS):
        return False
    return bool((np.abs(final.translation[:2]) <= (hl, hb)).all())


# ---------------------------------------------------------------- reports


def _placement_record(p):
    return {
        "index": list(p.index),
        "goal": pose_to_record(p.goal),
        "achieved": pose_to_record(p.achieved),
        "position_error": p.position_error,
        "yaw_error": p.yaw_error,
        "rotation_error": p.rotation_error,
        "success": p.success,
        "outcome": p.trajectory_outcome.value,
        "steps": p.steps,
    }


def report_to_record(report):
    """The deterministic results section.  Timing is kept out of it so
    two runs of the same seeded spec serialize identically."""
    return {
        "robot": report.robot,
        "layout_kind": report.layout_kind,
        "mode2_enabled": report.mode2_enabled,
        "goals_total": report.goals_total,
        "bricks_placed_before_failure": report.bricks_placed_before_failure,
        "successes": sum(1 for p in report.placements if p.success),
        "mean_position_error": report.mean_position_error,
        "max_yaw_error": report.max_yaw_error,
        "placements": [_placement_record(p) for p in report.placements],
    }


def _placement_from_record(rec):
    E = MalformedReportError
    p = PlacementResult(
        index=wholes(rec["index"], "index", E, 3),
        goal=pose_from_record(rec["goal"]),
        achieved=pose_from_record(rec["achieved"]),
        position_error=real(rec["position_error"], "position_error", E),
        yaw_error=real(rec["yaw_error"], "yaw_error", E),
        rotation_error=real(rec["rotation_error"], "rotation_error", E),
        success=flag(rec["success"], "success", E),
        trajectory_outcome=Outcome(rec["outcome"]),
        steps=whole(rec["steps"], "steps", E))
    if p.success != _success(p.trajectory_outcome, p.position_error,
                             p.yaw_error):
        raise E(f"placement {list(p.index)}: success {p.success} "
                "contradicts its outcome and errors")
    return p


def _report_from_doc(doc, runtime_seconds):
    E = MalformedReportError
    placements = tuple(map(_placement_from_record, doc["placements"]))
    goals_total = whole(doc["goals_total"], "goals_total", E,
                        low=len(placements))
    stored = dict(
        bricks_placed_before_failure=whole(
            doc["bricks_placed_before_failure"],
            "bricks_placed_before_failure", E),
        mean_position_error=real(doc["mean_position_error"],
                                 "mean_position_error", E, null=True),
        max_yaw_error=real(doc["max_yaw_error"], "max_yaw_error", E,
                           null=True),
        successes=whole(doc["successes"], "successes", E))
    derived = _aggregates(placements)
    for name, value in dict(
            derived, successes=sum(p.success for p in placements)).items():
        if stored[name] != value:
            raise E(f"{name} is {stored[name]}, but the placements give "
                    f"{value}")
    return ActivityReport(
        robot=text(doc["robot"], "robot", E),
        layout_kind=text(doc["layout_kind"], "layout_kind", E),
        mode2_enabled=flag(doc["mode2_enabled"], "mode2_enabled", E),
        goals_total=goals_total, placements=placements, **derived,
        runtime_seconds=real(runtime_seconds, "runtime_seconds", E))


def report_from_record(doc, runtime_seconds=0.0):
    """The report a results section records; its aggregates, successes
    and success flags must be the ones its placements give."""
    return decode(doc, MalformedReportError,
                  lambda doc: _report_from_doc(doc, runtime_seconds))


def summary_table(report):
    """Plain-text table: one header block, one row per placement."""
    def fmt_deg(rad):
        return f"{math.degrees(rad):.4f}"
    lines = [
        f"robot            {report.robot}",
        f"layout           {report.layout_kind}",
        f"limit recovery   {'on' if report.mode2_enabled else 'off'}",
        f"placed           {report.bricks_placed_before_failure}"
        f"/{report.goals_total}",
        f"successes        "
        f"{sum(1 for p in report.placements if p.success)}",
        "mean position error  " + (
            "n/a" if report.mean_position_error is None
            else f"{report.mean_position_error:.3e} m"),
        "max yaw error        " + (
            "n/a" if report.max_yaw_error is None
            else fmt_deg(report.max_yaw_error) + " deg"),
        "",
        "index    outcome                position_m  yaw_deg  ok",
    ]
    for p in report.placements:
        idx = ",".join(str(v) for v in p.index)
        lines.append(f"{idx:<8} {p.trajectory_outcome.value:<22} "
                     f"{p.position_error:<11.3e} "
                     f"{fmt_deg(p.yaw_error):<8} "
                     f"{'yes' if p.success else 'no'}")
    return "\n".join(lines) + "\n"


def _report_to_record(report):
    return {"format": "activity_report", "units": dict(UNITS),
            "results": report_to_record(report),
            "timing": {"runtime_seconds": report.runtime_seconds}}


def _report_from_record(doc):
    return decode(doc, MalformedReportError, lambda doc: report_from_record(
        doc["results"], doc.get("timing", {}).get("runtime_seconds", 0.0)),
        "activity_report", UNITS)


def _paired_to_record(paired):
    return {"format": "paired_activity_report", "units": dict(UNITS),
            "results": {"ours": report_to_record(paired.ours),
                        "baseline": report_to_record(paired.baseline)},
            "timing": {
                "ours_runtime_seconds": paired.ours.runtime_seconds,
                "baseline_runtime_seconds": paired.baseline.runtime_seconds}}


def _paired_from_record(doc):
    return decode(doc, MalformedReportError, lambda doc: PairedReport(*(
        report_from_record(doc["results"][run], doc.get("timing", {}).get(
            f"{run}_runtime_seconds", 0.0)) for run in ("ours", "baseline"))),
        "paired_activity_report", UNITS)


def _paired_table(paired):
    """Both runs side by side in a two-row comparison table."""
    rows = ["method    placed  successes"]
    for name, run in (("ours", paired.ours), ("baseline", paired.baseline)):
        rows.append(f"{name:<10}{run.bricks_placed_before_failure}"
                    f"/{run.goals_total}    "
                    f"{sum(1 for p in run.placements if p.success)}")
    return "\n".join(rows) + "\n"


# ------------------------------------------------------------ spec files


def activity_spec_to_record(spec):
    if isinstance(spec.base_policy, FixedBase):
        policy = {"kind": "fixed",
                  "base": pose_to_record(spec.base_policy.base)}
    else:
        p = spec.base_policy
        policy = {"kind": "moving", **asdict(p),
                  "initial": pose_to_record(p.initial),
                  "step": pose_to_record(p.step)}
    return {
        "format": "activity_spec",
        "units": dict(UNITS),
        "robot": _robot_record(spec.robot),
        "q_start": [float(v) for v in spec.q_start],
        "layout": layout_spec_to_record(spec.layout),
        "demo_model": constraint_model_to_record(spec.demo_model),
        "pick_station": {**asdict(spec.pick_station),
                         "base": pose_to_record(spec.pick_station.base)},
        "grasp_offset": pose_to_record(spec.grasp_offset),
        "base_policy": policy,
        "planner": asdict(spec.planner_config),
    }


def _robot_record(robot):
    """Compact reference for the packaged arm, full description for
    anything else (renamed limits, custom twists)."""
    record = robot_to_record(robot)
    if record == robot_to_record(panda_model()):
        return {"name": "panda"}
    return record


def _robot_from_record(rec):
    if "twists" in rec:
        return robot_from_record(rec)
    if "model_file" in rec:
        return records.load("robot", text(rec["model_file"], "model_file",
                                          InvalidActivitySpecError))
    if rec.get("name") == "panda":
        return panda_model()
    raise InvalidActivitySpecError(
        f"unknown robot {rec!r}; give a model_file or the packaged name")


def _policy_from_record(pol):
    if pol["kind"] == "fixed":
        return FixedBase(base=pose_from_record(pol["base"]))
    if pol["kind"] == "moving":
        optional = ("relocate_every", "radius", "yaw_range",
                    "stations_per_lap")
        return MovingBase(initial=pose_from_record(pol["initial"]),
                          step=pose_from_record(pol["step"]), seed=pol["seed"],
                          **{k: pol[k] for k in optional if k in pol})
    raise InvalidActivitySpecError(
        f"unknown base policy kind {pol.get('kind')!r}")


def _spec_from_record(doc):
    planner = doc["planner"]
    station = doc["pick_station"]
    return ActivitySpec(
        layout=layout_spec_from_record(doc["layout"]),
        demo_model=constraint_model_from_record(doc["demo_model"]),
        pick_station=PickStation(
            base=pose_from_record(station["base"]),
            in_base_frame=station.get("in_base_frame", False),
            restock=station.get("restock")),
        base_policy=_policy_from_record(doc["base_policy"]),
        robot=_robot_from_record(doc["robot"]),
        grasp_offset=pose_from_record(doc["grasp_offset"]),
        planner_config=PlannerConfig(**{
            f.name: planner[f.name] for f in fields(PlannerConfig)}),
        q_start=doc["q_start"])


def activity_spec_from_record(doc):
    return decode(doc, InvalidActivitySpecError, _spec_from_record,
                  "activity_spec", UNITS)


FORMATS.update(
    activity_spec=Format(InvalidActivitySpecError, activity_spec_to_record,
                         activity_spec_from_record, indent=2),
    activity_report=Format(MalformedReportError, _report_to_record,
                           _report_from_record, indent=2,
                           table=summary_table),
    paired_activity_report=Format(MalformedReportError, _paired_to_record,
                                  _paired_from_record, indent=2,
                                  table=_paired_table))
