"""Command line front end.

Five subcommands cover the file-to-file workflow: ``segment`` a recorded
demonstration into constant-screw segments, ``layout`` a goal sequence
from a layout spec, ``plan`` joint trajectories through guiding poses,
``run-activity`` a full construction activity, and ``compare-baseline``
the same activity with and without limit recovery.  Exit codes: 0 on
success (for activities: every placement succeeded), 1 when planning or
placement fell short, 2 on bad inputs.
"""

import argparse
import sys

import numpy as np

from . import records
from .activity import compare_baseline, run_activity, summary_table
from .demonstration import segment_demonstration, DEFAULT_FIT_TOL
from .layouts import layout_goals
from .planner import plan_through_guiding_poses, Outcome, PlannerConfig


def _cmd_segment(args):
    demo = records.load("demonstration", args.demo)
    fit_tol = (args.rot_tol, args.trans_tol)
    segments = segment_demonstration(demo, fit_tol=fit_tol)
    records.save("segments", segments, args.out, object_id=demo.object_id,
                 fit_tol=fit_tol)
    print(f"{len(segments)} segments -> {args.out}")
    return 0


def _cmd_layout(args):
    spec = records.load("layout_spec", args.spec)
    goals = layout_goals(spec)
    records.save("goal_sequence", goals, args.out)
    print(f"{len(goals)} goals -> {args.out}")
    return 0


def _cmd_plan(args):
    model = records.load("robot", args.robot)
    guiding = records.load("pose_sequence", args.guiding)
    if len(args.q0) != model.n_joints:
        raise records.InputError(f"--q0 has {len(args.q0)} values, robot "
                         f"{model.name!r} has {model.n_joints} joints")
    q0 = records.reals(args.q0, "--q0", records.InputError)
    config = PlannerConfig(mode2_enabled=not args.no_mode2)
    traj = plan_through_guiding_poses(np.array(q0), guiding, model, config)
    records.save("trajectory", traj, args.out, robot=model.name)
    print(f"{traj.outcome.value}: {len(traj)} steps -> {args.out}")
    return 0 if traj.outcome is Outcome.REACHED else 1


def _run_and_score(args, runner, tag):
    spec = records.load("activity_spec", args.spec)
    report = runner(spec)
    records.save(tag, report, args.out)
    scored = report if not hasattr(report, "ours") else report.ours
    print(summary_table(scored))
    complete = (len(scored.placements) == scored.goals_total
                and all(p.success for p in scored.placements))
    return 0 if complete else 1


def _cmd_run_activity(args):
    return _run_and_score(args, run_activity, "activity_report")


def _cmd_compare_baseline(args):
    return _run_and_score(args, compare_baseline, "paired_activity_report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="screwplan",
        description="screw-geodesic motion plans from one demonstration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment",
                       help="split a demonstration into constant screws")
    p.add_argument("--demo", required=True, help="demonstration file")
    p.add_argument("--rot-tol", type=float, default=DEFAULT_FIT_TOL[0],
                   help="fit tolerance, radians")
    p.add_argument("--trans-tol", type=float, default=DEFAULT_FIT_TOL[1],
                   help="fit tolerance, meters")
    p.add_argument("--out", required=True, help="segments file to write")
    p.set_defaults(run=_cmd_segment)

    p = sub.add_parser("layout", help="expand a layout spec into goals")
    p.add_argument("--spec", required=True, help="layout spec file")
    p.add_argument("--out", required=True, help="goal sequence file to write")
    p.set_defaults(run=_cmd_layout)

    p = sub.add_parser("plan",
                       help="plan joint motion through guiding poses")
    p.add_argument("--robot", required=True, help="robot model file")
    p.add_argument("--guiding", required=True, help="pose sequence file")
    p.add_argument("--q0", required=True, type=float, nargs="+", metavar="Q",
                   help="start configuration, one value per joint, radians")
    p.add_argument("--no-mode2", action="store_true",
                   help="baseline planner: fail at joint limits")
    p.add_argument("--out", required=True, help="trajectory file to write")
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser("run-activity",
                       help="execute and score a construction activity")
    p.add_argument("--spec", required=True, help="activity spec file")
    p.add_argument("--out", required=True, help="report file to write")
    p.set_defaults(run=_cmd_run_activity)

    p = sub.add_parser("compare-baseline",
                       help="run an activity with and without recovery")
    p.add_argument("--spec", required=True, help="activity spec file")
    p.add_argument("--out", required=True, help="paired report to write")
    p.set_defaults(run=_cmd_compare_baseline)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (records.InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
