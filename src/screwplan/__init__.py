"""One demonstration in, many placements out.

Screw-theoretic motion planning for repetitive assembly: record a single
object transport, segment it into constant-screw pieces, re-target the
pieces to every goal of a layout, and track them with a redundant arm
that trades elbow posture for joint-limit clearance.  Purely kinematic;
poses in meters and radians throughout.
"""

from .screws import (INFINITE_PITCH, Pose, ScrewDisplacement, compose,
                     exp_screw, inverse, load_pose_sequence, log_pose,
                     pose_error, save_pose_sequence, sclerp, sclerp_path,
                     screw_from_pose, unit_twist)
from .demonstration import (ConstraintModel, Demonstration, ScrewSegment,
                            TaskInstance, extract_guiding_poses,
                            load_constraint_model, load_demonstration,
                            load_segments, save_constraint_model,
                            save_demonstration, save_segments,
                            segment_demonstration, synthesize_demonstration,
                            transfer_constraints)
from .layouts import (LayoutGoal, LayoutKind, LayoutSpec, ObjectDims,
                      layout_goals, load_goal_sequence, load_layout_spec,
                      pick_stack, save_goal_sequence, save_layout_spec)
from .kinematics import (PANDA_READY, RobotModel, arm_state,
                         forward_kinematics, limit_margin, load_robot_model,
                         panda_model, save_robot_model, self_motion_rollout,
                         sew_angle)
from .planner import (InvalidTrajectoryError, JointTrajectory, Mode,
                      Outcome, PlannerConfig, TrajectoryStep,
                      geodesic_deviation, load_trajectory,
                      plan_through_guiding_poses, plan_to_pose,
                      save_trajectory)
from .activity import (POSITION_TOL, YAW_TOL, ActivityReport, ActivitySpec,
                       FixedBase, FrameGeometry, MovingBase, PairedReport,
                       PickStation, attached_object_poses, compare_baseline,
                       emit_paired_report, emit_report, evaluate_ceiling,
                       evaluate_placement, load_activity_spec, run_activity,
                       save_activity_spec, summary_table)

__all__ = [
    "INFINITE_PITCH", "Pose", "ScrewDisplacement", "compose",
    "exp_screw", "inverse", "load_pose_sequence", "log_pose", "pose_error",
    "save_pose_sequence", "sclerp", "sclerp_path", "screw_from_pose",
    "unit_twist",
    "ConstraintModel", "Demonstration", "ScrewSegment", "TaskInstance",
    "extract_guiding_poses", "load_constraint_model", "load_demonstration",
    "load_segments", "save_constraint_model", "save_demonstration",
    "save_segments", "segment_demonstration", "synthesize_demonstration",
    "transfer_constraints",
    "LayoutGoal", "LayoutKind", "LayoutSpec", "ObjectDims", "layout_goals",
    "load_goal_sequence", "load_layout_spec", "pick_stack",
    "save_goal_sequence", "save_layout_spec",
    "PANDA_READY", "RobotModel", "arm_state", "forward_kinematics",
    "limit_margin", "load_robot_model", "panda_model", "save_robot_model",
    "self_motion_rollout", "sew_angle",
    "InvalidTrajectoryError", "JointTrajectory", "Mode", "Outcome",
    "PlannerConfig", "TrajectoryStep",
    "geodesic_deviation", "load_trajectory", "plan_through_guiding_poses",
    "plan_to_pose", "save_trajectory",
    "POSITION_TOL", "YAW_TOL", "ActivityReport", "ActivitySpec", "FixedBase",
    "FrameGeometry", "MovingBase", "PairedReport", "PickStation",
    "attached_object_poses", "compare_baseline", "emit_paired_report",
    "emit_report", "evaluate_ceiling", "evaluate_placement",
    "load_activity_spec", "run_activity", "save_activity_spec",
    "summary_table",
]

__version__ = "0.1.0"
