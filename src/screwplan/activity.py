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
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .demonstration import (ConstraintModel, TaskInstance,
                            constraint_model_from_record,
                            constraint_model_to_record, transfer_constraints)
from .kinematics import (PANDA_READY, load_robot_model, panda_model,
                         robot_from_record, robot_to_record)
from .layouts import (LayoutSpec, is_real, is_whole, layout_goals,
                      layout_spec_from_record, layout_spec_to_record,
                      pick_stack, yaw_rotation)
from .planner import Outcome, PlannerConfig, plan_through_guiding_poses
from .screws import (UNITS, Pose, compose, decode, inverse, pose_error,
                     pose_from_record, pose_to_record, read_document,
                     write_document)

# placement is scored on translation distance and heading alone; the
# full rotation error is recorded but does not gate success
POSITION_TOL = 0.0075
YAW_TOL = math.radians(2.0)


class ActivityError(ValueError):
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
        if not isinstance(self.in_base_frame, bool):
            raise InvalidActivitySpecError("in_base_frame must be a bool")
        if self.restock is not None:
            if not (is_whole(self.restock) and self.restock >= 1):
                raise InvalidActivitySpecError(
                    "restock must be a whole number >= 1")
            object.__setattr__(self, "restock", int(self.restock))


def pick_sequence(station, count, dims):
    """The pick pose (or base-frame offset) for each of count objects."""
    if station.restock is None:
        return pick_stack(station.base, count, dims)
    pile = pick_stack(station.base, station.restock, dims)
    return [pile[n % station.restock] for n in range(count)]


@dataclass(frozen=True)
class FixedBase:
    base: Pose


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
        lap = self.stations_per_lap
        if not (is_whole(self.seed) and all(
                is_whole(n) and n >= 1
                for n in (self.relocate_every, 1 if lap is None else lap))):
            raise InvalidActivitySpecError(
                "moving base needs a whole seed, and whole relocate_every "
                "and stations_per_lap >= 1")
        if not all(is_real(x) and 0.0 <= x < math.inf
                   for x in (self.radius, self.yaw_range)):
            raise InvalidActivitySpecError(
                "noise radius and yaw range must be finite numbers >= 0")
        for name, kind in (("seed", int), ("relocate_every", int),
                           ("radius", float), ("yaw_range", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if lap is not None:
            object.__setattr__(self, "stations_per_lap", int(lap))


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
    robot: object = field(default_factory=panda_model)
    grasp_offset: Pose = field(default_factory=Pose.identity)
    planner_config: PlannerConfig = field(default_factory=PlannerConfig)
    q_start: np.ndarray = field(default_factory=lambda: PANDA_READY.copy())

    def __post_init__(self):
        if not isinstance(self.base_policy, (FixedBase, MovingBase)):
            raise InvalidActivitySpecError(
                "base_policy must be FixedBase or MovingBase")
        q = np.asarray(self.q_start, dtype=float)
        if q.shape != (self.robot.n_joints,):
            raise InvalidActivitySpecError(
                f"q_start needs {self.robot.n_joints} joint values")
        if not np.isfinite(q).all():
            raise InvalidActivitySpecError("q_start must be finite")
        object.__setattr__(self, "q_start", q)


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
    ok = dist < POSITION_TOL and yaw < YAW_TOL
    return dist, yaw, rot, ok


def attached_object_poses(traj, grasp_offset=None):
    """Object poses over the carry: from the step that reached the first
    guiding pose (the pick) through the final step (the place)."""
    start = traj.segment_starts[1] if len(traj.segment_starts) > 1 else 0
    inv = None if grasp_offset is None else inverse(grasp_offset)
    return [s.end_effector if inv is None else compose(s.end_effector, inv)
            for s in traj.steps[start:]]


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
        dist, yaw, rot, ok = evaluate_placement(achieved, instance.goal)
        reached = traj.outcome is Outcome.REACHED
        placements.append(PlacementResult(
            index=(goal.i, goal.j, goal.k), goal=instance.goal,
            achieved=achieved, position_error=dist, yaw_error=yaw,
            rotation_error=rot, success=bool(ok and reached),
            trajectory_outcome=traj.outcome, steps=len(traj.steps)))
        if keep_trajectories:
            trajectories.append(traj)
        if not reached:
            break
        q = traj.final_q
    # the run stopped at the first placement that was not reached
    done = [p for p in placements if p.trajectory_outcome is Outcome.REACHED]
    pos_errs = [p.position_error for p in done]
    yaw_errs = [p.yaw_error for p in done]
    return ActivityReport(
        robot=spec.robot.name,
        layout_kind=spec.layout.kind.value,
        mode2_enabled=spec.planner_config.mode2_enabled,
        goals_total=len(goals),
        placements=tuple(placements),
        bricks_placed_before_failure=len(done),
        mean_position_error=float(np.mean(pos_errs)) if pos_errs else None,
        max_yaw_error=max(yaw_errs) if yaw_errs else None,
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
        if self.opening_length <= 0.0 or self.opening_breadth <= 0.0:
            raise InvalidActivitySpecError("opening extents must be positive")


def _cuboid_corners(dims):
    half = np.array([dims.length, dims.breadth, dims.width]) / 2.0
    signs = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                      for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    return signs * half


# corner indices differing in exactly one sign bit
_CUBOID_EDGES = tuple((i, j) for i in range(8) for j in range(i + 1, 8)
                      if bin(i ^ j).count("1") == 1)
_BOTTOM_CORNERS = (0, 2, 4, 6)


def evaluate_ceiling(tile_poses, dims, frame):
    """Geometric pass/fail for a tile carried through a ceiling opening.

    Succeeds iff at every pose whose cuboid straddles the frame plane
    the cross-section (polygon cut by the plane) lies inside the
    opening, and the final pose lies flat on the lip: tilt below the
    yaw tolerance, bottom corners within the position tolerance of the
    plane, center over the opening.  Support is scored by pose, not
    statics.
    """
    if not tile_poses:
        raise InvalidActivitySpecError("need at least one tile pose")
    inv_frame = inverse(frame.pose)
    corners = _cuboid_corners(dims)
    hl, hb = frame.opening_length / 2.0, frame.opening_breadth / 2.0
    for pose in tile_poses:
        pts = compose(inv_frame, pose).apply(corners)
        z = pts[:, 2]
        if z.min() >= 0.0 or z.max() <= 0.0:
            continue
        for i, j in _CUBOID_EDGES:
            zi, zj = z[i], z[j]
            if (zi > 0.0) == (zj > 0.0):
                continue
            t = zi / (zi - zj)
            cut = pts[i] + t * (pts[j] - pts[i])
            if abs(cut[0]) > hl or abs(cut[1]) > hb:
                return False
    final = compose(inv_frame, tile_poses[-1])
    tilt = math.acos(max(-1.0, min(1.0, final.rotation[2, 2])))
    if tilt > YAW_TOL:
        return False
    pts = final.apply(corners)
    if any(abs(pts[i, 2]) > POSITION_TOL for i in _BOTTOM_CORNERS):
        return False
    return abs(final.translation[0]) <= hl and abs(final.translation[1]) <= hb


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


def _flag(rec, key):
    if not isinstance(rec[key], bool):
        raise MalformedReportError(f"{key} must be true or false")
    return rec[key]


def _text(rec, key):
    if not isinstance(rec[key], str):
        raise MalformedReportError(f"{key} must be a string")
    return rec[key]


def _count(rec, key):
    if not (is_whole(rec[key]) and rec[key] >= 0):
        raise MalformedReportError(f"{key} must be a whole number >= 0")
    return int(rec[key])


def _error(rec, key, nullable=False):
    if nullable and rec[key] is None:
        return None
    if not (is_real(rec[key]) and math.isfinite(rec[key])):
        raise MalformedReportError(f"{key} must be a finite number")
    return float(rec[key])


def _placement_from_record(rec):
    if not (isinstance(rec["index"], list)
            and all(is_whole(i) for i in rec["index"])):
        raise MalformedReportError("index must be a list of whole numbers")
    return PlacementResult(
        index=tuple(rec["index"]),
        goal=pose_from_record(rec["goal"]),
        achieved=pose_from_record(rec["achieved"]),
        position_error=_error(rec, "position_error"),
        yaw_error=_error(rec, "yaw_error"),
        rotation_error=_error(rec, "rotation_error"),
        success=_flag(rec, "success"),
        trajectory_outcome=Outcome(rec["outcome"]),
        steps=_count(rec, "steps"))


def report_from_record(doc, runtime_seconds=0.0):
    return decode(doc, MalformedReportError, lambda doc: ActivityReport(
        robot=_text(doc, "robot"),
        layout_kind=_text(doc, "layout_kind"),
        mode2_enabled=_flag(doc, "mode2_enabled"),
        goals_total=_count(doc, "goals_total"),
        placements=tuple(map(_placement_from_record, doc["placements"])),
        bricks_placed_before_failure=_count(
            doc, "bricks_placed_before_failure"),
        mean_position_error=_error(doc, "mean_position_error", True),
        max_yaw_error=_error(doc, "max_yaw_error", True),
        runtime_seconds=float(runtime_seconds)))


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


def _emit(fmt, results, timing, table, destination):
    """The report envelope as one JSON document, and the plain-text
    table beside it (.txt)."""
    write_document({"format": fmt, "units": dict(UNITS),
                    "results": results, "timing": timing},
                   destination, indent=2)
    base, _ = os.path.splitext(str(destination))
    with open(base + ".txt", "w", encoding="utf-8") as f:
        f.write(table)


def emit_report(report, destination):
    """One JSON document plus a summary table beside it (.txt)."""
    _emit("activity_report", report_to_record(report),
          {"runtime_seconds": report.runtime_seconds},
          summary_table(report), destination)


def load_report(source):
    return decode(read_document(source, MalformedReportError),
                  MalformedReportError, lambda doc: report_from_record(
                      doc["results"],
                      doc.get("timing", {}).get("runtime_seconds", 0.0)),
                  "activity_report", UNITS)


def emit_paired_report(paired, destination):
    """Both runs side by side, plus a two-row comparison table."""
    rows = ["method    placed  successes"]
    for name, run in (("ours", paired.ours), ("baseline", paired.baseline)):
        rows.append(f"{name:<10}{run.bricks_placed_before_failure}"
                    f"/{run.goals_total}    "
                    f"{sum(1 for p in run.placements if p.success)}")
    _emit("paired_activity_report",
          {"ours": report_to_record(paired.ours),
           "baseline": report_to_record(paired.baseline)},
          {"ours_runtime_seconds": paired.ours.runtime_seconds,
           "baseline_runtime_seconds": paired.baseline.runtime_seconds},
          "\n".join(rows) + "\n", destination)


def load_paired_report(source):
    def build(doc):
        timing = doc.get("timing", {})
        return PairedReport(*(report_from_record(
            doc["results"][run], timing.get(f"{run}_runtime_seconds", 0.0))
            for run in ("ours", "baseline")))

    return decode(read_document(source, MalformedReportError),
                  MalformedReportError, build, "paired_activity_report",
                  UNITS)


# ------------------------------------------------------------ spec files


def activity_spec_to_record(spec):
    if isinstance(spec.base_policy, FixedBase):
        policy = {"kind": "fixed",
                  "base": pose_to_record(spec.base_policy.base)}
    else:
        p = spec.base_policy
        policy = {"kind": "moving", "initial": pose_to_record(p.initial),
                  "step": pose_to_record(p.step), "seed": p.seed,
                  "relocate_every": p.relocate_every, "radius": p.radius,
                  "yaw_range": p.yaw_range,
                  "stations_per_lap": p.stations_per_lap}
    cfg = spec.planner_config
    return {
        "format": "activity_spec",
        "units": dict(UNITS),
        "robot": _robot_record(spec.robot),
        "q_start": [float(v) for v in spec.q_start],
        "layout": layout_spec_to_record(spec.layout),
        "demo_model": constraint_model_to_record(spec.demo_model),
        "pick_station": {"base": pose_to_record(spec.pick_station.base),
                         "in_base_frame": spec.pick_station.in_base_frame,
                         "restock": spec.pick_station.restock},
        "grasp_offset": pose_to_record(spec.grasp_offset),
        "base_policy": policy,
        "planner": {
            "eps_in": cfg.eps_in, "eps_out": cfg.eps_out,
            "kappa": cfg.kappa, "lam": cfg.lam, "delta_t": cfg.delta_t,
            "goal_tol": list(cfg.goal_tol), "max_steps": cfg.max_steps,
            "sew_search": list(cfg.sew_search),
            "mode2_enabled": cfg.mode2_enabled,
        },
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
        return load_robot_model(rec["model_file"])
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
        planner_config=PlannerConfig(
            eps_in=planner["eps_in"],
            eps_out=planner["eps_out"],
            kappa=planner["kappa"],
            lam=planner["lam"],
            delta_t=planner["delta_t"],
            goal_tol=tuple(planner["goal_tol"]),
            max_steps=planner["max_steps"],
            sew_search=tuple(planner["sew_search"]),
            mode2_enabled=planner["mode2_enabled"]),
        q_start=np.array(doc["q_start"], dtype=float))


def activity_spec_from_record(doc):
    return decode(doc, InvalidActivitySpecError, _spec_from_record,
                  "activity_spec", UNITS)


def save_activity_spec(spec, path):
    write_document(activity_spec_to_record(spec), path, indent=2)


def load_activity_spec(path):
    return activity_spec_from_record(
        read_document(path, InvalidActivitySpecError))
