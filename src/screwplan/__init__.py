"""One demonstration in, many placements out.

Screw-theoretic motion planning for repetitive assembly: record a single
object transport, segment it into constant-screw pieces, re-target the
pieces to every goal of a layout, and track them with a redundant arm
that trades elbow posture for joint-limit clearance.  Purely kinematic;
poses in meters and radians throughout.
"""

from .screws import (INFINITE_PITCH, Pose, ScrewDisplacement, compose,
                     exp_screw, inverse, log_pose, pose_error, sclerp,
                     sclerp_path, screw_from_pose, unit_twist)
from .demonstration import (ConstraintModel, Demonstration, ScrewSegment,
                            TaskInstance, extract_guiding_poses,
                            segment_demonstration, synthesize_demonstration,
                            transfer_constraints)
from .layouts import (LayoutGoal, LayoutKind, LayoutSpec, ObjectDims,
                      layout_goals, pick_stack)
from .kinematics import (PANDA_READY, RobotModel, arm_state,
                         forward_kinematics, limit_margin, panda_model,
                         self_motion_rollout, sew_angle)
from .planner import (InvalidTrajectoryError, JointTrajectory, Mode,
                      Outcome, PlannerConfig, TrajectoryStep,
                      plan_through_guiding_poses, plan_to_pose)
from .activity import (POSITION_TOL, YAW_TOL, ActivityReport, ActivitySpec,
                       FixedBase, FrameGeometry, MovingBase, PairedReport,
                       PickStation, attached_object_poses, compare_baseline,
                       evaluate_ceiling, evaluate_placement, run_activity,
                       summary_table)

__all__ = [
    "INFINITE_PITCH", "Pose", "ScrewDisplacement", "compose",
    "exp_screw", "inverse", "log_pose", "pose_error", "sclerp",
    "sclerp_path", "screw_from_pose", "unit_twist",
    "ConstraintModel", "Demonstration", "ScrewSegment", "TaskInstance",
    "extract_guiding_poses", "segment_demonstration",
    "synthesize_demonstration", "transfer_constraints",
    "LayoutGoal", "LayoutKind", "LayoutSpec", "ObjectDims", "layout_goals",
    "pick_stack",
    "PANDA_READY", "RobotModel", "arm_state", "forward_kinematics",
    "limit_margin", "panda_model", "self_motion_rollout", "sew_angle",
    "InvalidTrajectoryError", "JointTrajectory", "Mode", "Outcome",
    "PlannerConfig", "TrajectoryStep", "plan_through_guiding_poses",
    "plan_to_pose",
    "POSITION_TOL", "YAW_TOL", "ActivityReport", "ActivitySpec", "FixedBase",
    "FrameGeometry", "MovingBase", "PairedReport", "PickStation",
    "attached_object_poses", "compare_baseline", "evaluate_ceiling",
    "evaluate_placement", "run_activity", "summary_table",
]

__version__ = "0.1.0"
