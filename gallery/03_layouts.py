"""Goal poses for walls and ceiling grids from two recurrences.

One in-layer step pose and one layer-lift pose generate every goal:
running-bond walls, a wall that turns a corner, a curved wall, and a
flat ceiling grid all come out of the same machinery.
"""

import math
from pathlib import Path

import numpy as np

from screwplan import (LayoutKind, LayoutSpec, ObjectDims, layout_goals,
                       records)
from screwplan.scenarios import BRICK, TILE, flat_pose

OUT = Path(__file__).parent / "out"


def show(title, goals):
    print(f"\n{title}: {len(goals)} goals")
    for g in goals:
        yaw = math.degrees(math.atan2(g.pose.rotation[1, 0],
                                      g.pose.rotation[0, 0]))
        print(f"  ({g.i},{g.j},{g.k})  at {np.round(g.pose.translation, 3)}"
              f"  yaw {yaw:6.1f} deg")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)

    wall = LayoutSpec(kind=LayoutKind.STRAIGHT_WALL,
                      base=flat_pose([0.46, -0.15, BRICK.width / 2],
                                     yaw=math.pi / 2),
                      dims=BRICK, layers=3, per_layer=4,
                      layer_offset=(BRICK.length / 2, 0.0))
    show("running-bond wall, 3 layers of 4", layout_goals(wall))

    corner = LayoutSpec(kind=LayoutKind.CORNER_WALL,
                        base=flat_pose([0.3, -0.2, BRICK.width / 2]),
                        dims=BRICK, layers=1, per_layer=5, corner_index=4)
    show("corner wall, the heading turns once", layout_goals(corner))

    curved = LayoutSpec(kind=LayoutKind.CURVED_WALL,
                        base=flat_pose([0.3, -0.3, BRICK.width / 2]),
                        dims=BRICK, layers=1, per_layer=7,
                        per_step_yaw=math.radians(15.0))
    show("curved wall, 15 deg per brick", layout_goals(curved))

    grid = LayoutSpec(kind=LayoutKind.CEILING_GRID,
                      base=flat_pose([0.4, -0.3, 0.6]),
                      dims=TILE, layers=2, per_layer=3,
                      spacing=(0.008, 0.008, 0.0))
    show("ceiling grid, 2 rows of 3 with 8 mm lips", layout_goals(grid))

    records.save("layout_spec", wall, OUT / "wall_layout.json")
    records.save("goal_sequence", layout_goals(wall), OUT / "wall_goals.json")
    print(f"\nwrote {OUT / 'wall_layout.json'} and {OUT / 'wall_goals.json'}")
