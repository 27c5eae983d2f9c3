"""A 12-brick running-bond wall from one demonstration.

The canonical pick-place demo is segmented once; its constraint model
is re-targeted to every brick of a 3-layer wall and tracked by the arm,
each placement starting from the configuration the previous one ended
in.  Takes a dozen seconds; moving_wall_activity(seed) is the same idea
at 36 bricks from a platform that steps along the wall.
"""

import math
from pathlib import Path

from screwplan import records, run_activity, summary_table
from screwplan.scenarios import brick_wall_activity

OUT = Path(__file__).parent / "out"

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)

    spec = brick_wall_activity()
    print(f"building {spec.layout.layers} layers of "
          f"{spec.layout.per_layer} bricks...")
    report = run_activity(spec)

    print(summary_table(report))
    print(f"placed {report.bricks_placed_before_failure}/"
          f"{report.goals_total}, mean position error "
          f"{report.mean_position_error * 1000:.3f} mm, max yaw "
          f"{math.degrees(report.max_yaw_error):.4f} deg, "
          f"{report.runtime_seconds:.1f} s")

    records.save("activity_report", report, OUT / "wall_report.json")
    print(f"wrote {OUT / 'wall_report.json'} and its summary table")
