"""From one recorded transport to a reusable constraint model.

A noisy pick-lift-carry-set demonstration is split into constant-screw
segments; the segment boundaries become guiding poses, anchored to the
demo's own pick and place regions.  Re-targeting the model to a new
(initial, goal) pair moves each anchored pose rigidly with its region,
so the strategy survives while the coordinates change.
"""

import math
from pathlib import Path

import numpy as np

from screwplan import (TaskInstance, records, segment_demonstration,
                       extract_guiding_poses, transfer_constraints)
from screwplan.scenarios import flat_pose, pick_place_demo

OUT = Path(__file__).parent / "out"

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(7)

    pick = flat_pose([0.45, 0.25, 0.0254])
    place = flat_pose([0.45, -0.15, 0.0254])
    demo = pick_place_demo(pick, place)
    print(f"demonstration: {len(demo.poses)} samples, "
          f"{demo.times[-1]:.1f} s of motion")

    segments = segment_demonstration(demo)
    print(f"\n{len(segments)} constant-screw segments:")
    for seg in segments:
        s = seg.screw
        kind = "slide" if math.isinf(s.pitch) else "turn"
        print(f"  samples {seg.start_index:3d}..{seg.end_index:3d}  {kind}"
              f"  magnitude {s.magnitude:.4f}  axis {np.round(s.axis, 3)}")

    # straight slides are the fragile case: past ~1 mm of noise the fit
    # starts splitting the long carry into collinear pieces
    noisy = pick_place_demo(pick, place,
                            noise=(math.radians(0.1), 0.0005), rng=rng)
    print(f"with bounded sensor noise on every sample: "
          f"{len(segment_demonstration(noisy))} segments recovered")

    instance = TaskInstance(initial=demo.poses[0], goal=demo.poses[-1])
    model = extract_guiding_poses(segments, instance)
    print(f"\nguiding poses: {len(model.guiding_poses)}, "
          f"anchored {model.anchor_initial} to the pick region, "
          f"{model.anchor_goal} to the place region")

    new_task = TaskInstance(initial=flat_pose([0.30, 0.35, 0.0254]),
                            goal=flat_pose([0.55, 0.05, 0.0254],
                                           yaw=math.radians(30.0)))
    moved = transfer_constraints(model, new_task)
    print("\nsame strategy at a new pick and a rotated goal:")
    for g in moved:
        print(f"  {np.round(g.translation, 3)}")

    records.save("segments", segments, OUT / "demo_segments.json",
                 object_id="brick")
    records.save("constraint_model", model, OUT / "demo_model.json")
    print(f"\nwrote {OUT / 'demo_segments.json'} and "
          f"{OUT / 'demo_model.json'}")
