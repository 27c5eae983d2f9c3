"""Rigid displacements as screws.

Any change of pose is one rotation about a line plus a slide along it.
This script recovers that line from a pose pair, walks the geodesic
between the poses, and shows that every intermediate pose lies on the
same screw at a shorter magnitude.
"""

import math
from pathlib import Path

import numpy as np

from screwplan import (Pose, compose, inverse, pose_error, records, sclerp,
                       screw_from_pose)

OUT = Path(__file__).parent / "out"


def rot_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)

    start = Pose(np.eye(3), np.array([0.4, -0.2, 0.1]))
    goal = Pose(rot_z(math.radians(90.0)), np.array([0.4, 0.2, 0.25]))

    screw = screw_from_pose(compose(goal, inverse(start)))
    print("displacement start -> goal, as a screw:")
    print(f"  axis      {np.round(screw.axis, 4)}")
    print(f"  moment    {np.round(screw.moment, 4)}")
    print(f"  pitch     {screw.pitch:.4f} m/rad")
    print(f"  magnitude {math.degrees(screw.magnitude):.1f} deg")

    taus = np.linspace(0.0, 1.0, 9)
    path = [sclerp(start, goal, t) for t in taus]
    print("\nalong the geodesic, the screw is shared and only the "
          "magnitude grows:")
    for t, pose in zip(taus[1:], path[1:]):
        part = screw_from_pose(compose(pose, inverse(start)))
        axis_drift = float(np.max(np.abs(part.axis - screw.axis)))
        print(f"  tau {t:.3f}  magnitude {part.magnitude:.4f} rad"
              f"  axis drift {axis_drift:.1e}")

    rot, trans = pose_error(path[-1], goal)
    print(f"\nendpoint error: {rot:.2e} rad, {trans:.2e} m")

    records.save("pose_sequence", path, OUT / "screw_geodesic.json")
    print(f"wrote {OUT / 'screw_geodesic.json'}")
