"""The 7-DoF arm and its self-motion.

Product-of-exponentials forward kinematics for the packaged arm, and
the one degree of freedom the flange cannot see: the elbow swings on a
circle while the hand stays put.  That circle is the resource the
planner spends when a joint approaches its limit.
"""

import math

import numpy as np

from screwplan import (PANDA_READY, Pose, arm_state, forward_kinematics,
                       limit_margin, panda_model, pose_error,
                       self_motion_rollout, sew_angle)

if __name__ == "__main__":
    model = panda_model()
    # the flange comes back as bare (R, p) arrays
    R, p, jac, psi, _ = arm_state(model, PANDA_READY)
    pose = Pose(R, p)
    print(f"arm: {model.name}, {model.n_joints} joints")
    print(f"ready flange at {np.round(p, 4)}")
    print(f"elbow angle {math.degrees(psi):.1f} deg, "
          f"jacobian rank {np.linalg.matrix_rank(jac)}")

    print("\nswinging the elbow 0.6 rad, hand pinned:")
    psis, qs = self_motion_rollout(model, PANDA_READY, 0.6)
    for k in range(0, len(qs), len(qs) // 6):
        rot, trans = pose_error(forward_kinematics(model, qs[k]), pose)
        print(f"  psi {sew_angle(model, qs[k]):+.3f} rad"
              f"  flange drift {trans:.2e} m"
              f"  worst limit margin {limit_margin(model, qs[k]):.3f} rad")

    print("\njoint motion over the swing (start -> end):")
    moved = np.abs(qs[-1] - qs[0])
    for i, d in enumerate(moved):
        bar = "#" * int(60 * d / moved.max()) if moved.max() > 0 else ""
        print(f"  joint {i}  {d:.3f}  {bar}")
    print("the roll joints absorb the swing; the fold joints barely move,")
    print("so a fold joint against its limit cannot be rescued this way")
