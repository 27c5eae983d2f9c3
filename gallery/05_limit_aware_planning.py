"""Planning through guiding poses, with and without elbow recovery.

Mode 1 tracks the task-space geodesic with resolved-rate steps.  When a
joint drifts into its inner safety band the planner freezes the hand,
swings the elbow until the band clears (mode 2), and resumes.  A
baseline with recovery disabled jams on the same scenario.
"""

from pathlib import Path

import numpy as np

from screwplan import (Mode, PlannerConfig, PANDA_READY,
                       forward_kinematics, panda_model, plan_to_pose, records)
from screwplan.activity import compare_baseline
from screwplan.scenarios import near_limit_scenarios

OUT = Path(__file__).parent / "out"

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    model = panda_model()

    q_goal = PANDA_READY + np.array([0.3, -0.2, 0.25, -0.3, 0.2, 0.25, -0.3])
    goal = forward_kinematics(model, q_goal)
    traj = plan_to_pose(PANDA_READY, goal, model, PlannerConfig())
    print(f"comfortable goal: {traj.outcome.value} in {len(traj)} "
          f"steps, all mode 1: {all(traj.mode == Mode.MODE1)}")
    records.save("trajectory", traj, OUT / "comfortable_goal.jsonl",
                 robot=model.name)

    name, spec = near_limit_scenarios()[0]
    print(f"\nscenario {name}: one roll joint pinched to a narrow range,")
    print("then the held brick is swept around the base axis")
    pair = compare_baseline(spec)
    for tag, rep in (("baseline", pair.baseline), ("ours", pair.ours)):
        p = rep.placements[0]
        print(f"  {tag:9s} placed {rep.bricks_placed_before_failure}"
              f"/{rep.goals_total}  outcome {p.trajectory_outcome.value}")
    print("the baseline jams mid-sweep; mode 2 trades the sweep into the")
    print("other roll joints and finishes")
