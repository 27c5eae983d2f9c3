"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, splits one
cycle of work into ``items``, runs an item with ``run`` (the only part
that is timed: calls into screwplan and nothing else) and scores its
output with ``check``.  ``check`` never raises on a wrong answer; it
counts the failure, so speed cannot be bought with wrong output.

All calls into the library go through module attributes
(``activity.run_activity``, not a name imported here), so a traced run
can rebind them.
"""

import math
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from screwplan import activity, demonstration, layouts, scenarios, screws
from screwplan.demonstration import TaskInstance
from screwplan.layouts import LayoutKind, LayoutSpec
from screwplan.planner import Mode, Outcome
from screwplan.screws import (Pose, ScrewDisplacement, compose, exp_screw,
                              pose_error, quat_to_rot, unit_twist)


@dataclass
class Checked:
    """What check() makes of one item's output."""

    attempted: int
    failed: int
    fingerprint: object
    stats: dict


def _mode2_counts(traj):
    modes = [s.mode for s in traj.steps]
    entries = sum(1 for i, m in enumerate(modes) if m is Mode.MODE2
                  and (i == 0 or modes[i - 1] is not Mode.MODE2))
    return {"mode2_entries": entries,
            "mode2_steps": sum(1 for m in modes if m is Mode.MODE2),
            "damped_steps": sum(1 for s in traj.steps if s.damped)}


def _placements_fingerprint(report):
    return [dict(index=list(p.index), steps=p.steps,
                 outcome=p.trajectory_outcome.value, success=p.success,
                 position_error=p.position_error, yaw_error=p.yaw_error,
                 **_mode2_counts(traj))
            for p, traj in zip(report.placements, report.trajectories)]


class MovingWall:
    """One station of the moving-base wall: three placements from a
    base that the seed perturbs, trajectories kept."""

    name = "moving_wall"
    seeded = True

    def setup(self, seed, tiny):
        return scenarios.moving_wall_activity(
            seed, layers=1, per_layer=1 if tiny else 3)

    def items(self, spec):
        return [0]

    def run(self, spec, item):
        return activity.run_activity(spec, keep_trajectories=True)

    def check(self, spec, item, report):
        placements = report.placements
        failed = sum(1 for p in placements if not p.success)
        # a placement never attempted because an earlier one stopped the
        # run counts as failed too
        failed += report.goals_total - len(placements)
        steps = sum(p.steps for p in placements)
        return Checked(
            attempted=report.goals_total, failed=failed,
            fingerprint=_placements_fingerprint(report),
            stats={"steps": steps, "placements": len(placements),
                   "motion_s": steps * spec.planner_config.delta_t,
                   "position_errors": [p.position_error for p in placements],
                   "yaw_errors": [p.yaw_error for p in placements]})

    def report(self, times, stats, first_cycle):
        seconds = sum(times)
        per_placement = [t / s["placements"] for t, s in zip(times, stats)]
        pos = [e for s in first_cycle for e in s["position_errors"]]
        yaw = [e for s in first_cycle for e in s["yaw_errors"]]
        return {
            "steps_per_s": (sum(s["steps"] for s in stats) / seconds, "1/s",
                            len(times)),
            "placement_s.p50": (statistics.median(per_placement), "s",
                                len(per_placement)),
            "motion_s": (sum(s["motion_s"] for s in first_cycle), "s", 1),
            "mean_pos_err_mm": (1e3 * statistics.fmean(pos), "mm", len(pos)),
            "max_yaw_err_deg": (math.degrees(max(yaw)), "deg", len(yaw)),
        }


class NearLimit:
    """The five near-limit scenarios, each run with recovery on and then
    off (the pair compare_baseline runs), trajectories kept so mode-2
    steps can be counted.  The seed has no effect."""

    name = "near_limit"
    seeded = False

    def setup(self, seed, tiny):
        suite = scenarios.near_limit_scenarios()
        if tiny:
            suite = suite[:1]
        return [(name, self._with_recovery(spec, True),
                 self._with_recovery(spec, False)) for name, spec in suite]

    @staticmethod
    def _with_recovery(spec, enabled):
        return replace(spec, planner_config=replace(
            spec.planner_config, mode2_enabled=enabled))

    def items(self, suite):
        return list(range(len(suite)))

    def run(self, suite, item):
        _, ours, baseline = suite[item]
        return (activity.run_activity(ours, keep_trajectories=True),
                activity.run_activity(baseline, keep_trajectories=True))

    def check(self, suite, item, out):
        name, spec, _ = suite[item]
        ours, baseline = out
        recovered = (ours.bricks_placed_before_failure == ours.goals_total
                     and all(p.success for p in ours.placements))
        jammed = (baseline.placements[-1].trajectory_outcome
                  is Outcome.MOTION_PLAN_FAILED)
        steps = (sum(p.steps for p in ours.placements)
                 + sum(p.steps for p in baseline.placements))
        return Checked(
            attempted=1, failed=int(not (recovered and jammed)),
            fingerprint={"scenario": name,
                         "ours": _placements_fingerprint(ours),
                         "baseline": _placements_fingerprint(baseline)},
            stats={"steps": steps,
                   "motion_s": steps * spec.planner_config.delta_t})

    def report(self, times, stats, first_cycle):
        return {
            "steps_per_s": (sum(s["steps"] for s in stats) / sum(times),
                            "1/s", len(times)),
            "motion_s": (sum(s["motion_s"] for s in first_cycle), "s", 1),
        }


# ------------------------------------------------------------ demo_transfer

SAMPLES_PER_LEG = 50
# bounded per-sample noise of the noisy half: (radians, meters)
DEMO_NOISE = (math.radians(0.2), 0.001)
# every kind of demo (1-3 screws, clean or noisy) and every goal of the
# 3x3 ceiling grid comes up equally often in one batch
DEMO_BATCH = 36
CEILING_OPENING = 0.32
SWEEP_TAUS = np.linspace(0.0, 1.0, 21)


def _rand_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rand_pose(rng):
    return Pose(quat_to_rot(rng.normal(size=4)), rng.uniform(-1.0, 1.0, 3))


def _key_chain(rng, k):
    """A start pose and k constant-screw legs of 0.6-1.5 rad, each with
    a random axis line and pitch."""
    keys = [_rand_pose(rng)]
    for _ in range(k):
        axis = _rand_unit(rng)
        moment = rng.normal(size=3) * 0.3
        moment -= (moment @ axis) * axis
        screw = ScrewDisplacement(axis, moment, rng.uniform(-0.2, 0.2),
                                  rng.uniform(0.6, 1.5))
        keys.append(compose(exp_screw(unit_twist(screw), screw.magnitude),
                            keys[-1]))
    return keys


def _planar_move(rng, span):
    """A rigid motion of the ground plane: yaw and horizontal shift."""
    yaw = layouts.yaw_rotation(rng.uniform(-math.pi, math.pi))
    shift = np.array([*rng.uniform(-span, span, 2), 0.0])
    return Pose(yaw.rotation, shift)


@dataclass(frozen=True)
class DemoInputs:
    seed: int
    chains: tuple  # per demo: (key poses, noisy, pick pose)
    walls: tuple  # straight, corner and curved LayoutSpec
    ceiling_model: object
    ceiling_pick: Pose
    ceiling_grid: LayoutSpec


class DemoTransfer:
    """Synthesise, segment and transfer a batch of random key-chain
    demonstrations, and sweep the ceiling tile through a 3x3 grid of
    openings.  No arm kinematics and no planner run here."""

    name = "demo_transfer"
    seeded = True

    def setup(self, seed, tiny):
        rng = np.random.default_rng(seed)
        count = 3 if tiny else DEMO_BATCH
        chains = tuple((_key_chain(rng, i % 3 + 1), i % 2 == 1,
                        _rand_pose(rng)) for i in range(count))
        brick = scenarios.BRICK
        walls = (
            LayoutSpec(kind=LayoutKind.STRAIGHT_WALL, base=_rand_pose(rng),
                       dims=brick, layers=2, per_layer=3,
                       layer_offset=(brick.length / 2, 0.0)),
            LayoutSpec(kind=LayoutKind.CORNER_WALL, base=_rand_pose(rng),
                       dims=brick, layers=1, per_layer=5, corner_index=3),
            LayoutSpec(kind=LayoutKind.CURVED_WALL, base=_rand_pose(rng),
                       dims=brick, layers=1, per_layer=5,
                       per_step_yaw=math.radians(10.0)),
        )
        spec, _ = scenarios.ceiling_tile_activity()
        move = _planar_move(rng, 0.3)
        grid = LayoutSpec(kind=LayoutKind.CEILING_GRID,
                          base=compose(move, spec.layout.base),
                          dims=scenarios.TILE, layers=3, per_layer=3,
                          spacing=(0.02, 0.02, 0.0))
        return DemoInputs(seed=seed, chains=chains, walls=walls,
                          ceiling_model=spec.demo_model,
                          ceiling_pick=compose(move, spec.pick_station.base),
                          ceiling_grid=grid)

    def items(self, inputs):
        return list(range(len(inputs.chains)))

    def run(self, inputs, item):
        keys, noisy, pick = inputs.chains[item]
        demo = demonstration.synthesize_demonstration(
            keys, samples_per_leg=SAMPLES_PER_LEG,
            noise=DEMO_NOISE if noisy else (0.0, 0.0),
            rng=np.random.default_rng([inputs.seed, item]))
        clock = time.perf_counter()
        segments = demonstration.segment_demonstration(demo)
        segment_s = time.perf_counter() - clock
        model = demonstration.extract_guiding_poses(
            segments, TaskInstance(initial=demo.poses[0],
                                   goal=demo.poses[-1]))
        transfers = [
            (goal.pose, demonstration.transfer_constraints(
                model, TaskInstance(initial=pick, goal=goal.pose)))
            for spec in inputs.walls for goal in layouts.layout_goals(spec)]
        goal = layouts.layout_goals(inputs.ceiling_grid)[item % 9].pose
        guiding = demonstration.transfer_constraints(
            inputs.ceiling_model,
            TaskInstance(initial=inputs.ceiling_pick, goal=goal))
        swept = []
        for a, b in zip(guiding, guiding[1:]):
            rots, trans = screws.sclerp_path(a, b, SWEEP_TAUS)
            swept.extend(Pose(r, t) for r, t in zip(rots, trans))
        # the opening sits under the seated tile, on the lip plane
        frame = activity.FrameGeometry(
            pose=compose(goal, Pose(np.eye(3), np.array(
                [0.0, 0.0, -scenarios.TILE.width / 2]))),
            opening_length=CEILING_OPENING, opening_breadth=CEILING_OPENING)
        fits = bool(activity.evaluate_ceiling(swept, scenarios.TILE, frame))
        oversized = bool(activity.evaluate_ceiling(
            swept, scenarios.oversized_tile(frame), frame))
        return segments, transfers, fits, oversized, segment_s

    def check(self, inputs, item, out):
        segments, transfers, fits, oversized, segment_s = out
        keys, noisy, pick = inputs.chains[item]
        k = len(keys) - 1
        ends = [s.end_index for s in segments]
        ok = len(segments) == k
        if not noisy:
            ok &= all(abs(e - SAMPLES_PER_LEG * (s + 1)) <= 1
                      for s, e in enumerate(ends))
        # transfer pins the first guiding pose to the pick, the last to
        # the goal
        worst = 0.0
        for goal, guiding in transfers:
            worst = max(worst, *pose_error(guiding[0], pick),
                        *pose_error(guiding[-1], goal))
        ok &= (worst < 1e-9 and fits and not oversized)
        return Checked(
            attempted=1, failed=int(not ok),
            fingerprint={"k": k, "noisy": noisy, "ends": ends,
                         "ceiling": [fits, oversized]},
            stats={"segment_s": segment_s})

    def report(self, times, stats, first_cycle):
        segment_ms = [1e3 * s["segment_s"] for s in stats]
        return {
            "demos_per_s": (len(times) / sum(times), "1/s", len(times)),
            "segment_ms.p50": (float(np.percentile(segment_ms, 50)), "ms",
                               len(segment_ms)),
            "segment_ms.p95": (float(np.percentile(segment_ms, 95)), "ms",
                               len(segment_ms)),
        }


WORKLOADS = {w.name: w for w in (MovingWall(), NearLimit(), DemoTransfer())}
