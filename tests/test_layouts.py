"""Layout recurrences against hand-unrolled poses."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwplan.layouts import (
    InvalidLayoutError,
    LayoutKind,
    LayoutSpec,
    LengthMismatchError,
    ObjectDims,
    ceiling_goals,
    corner_wall_goals,
    delta_offset,
    layout_goals,
    load_goal_sequence,
    load_layout_spec,
    make_task_instances,
    pick_stack,
    save_goal_sequence,
    save_layout_spec,
    translation_x,
    translation_y,
    translation_z,
    wall_goals,
    yaw_rotation,
)
from screwplan.screws import Pose, compose, pose_error, quat_to_rot
from util import rand_pose

BRICK = ObjectDims(length=0.1016, breadth=0.0508, width=0.0508)
TILE = ObjectDims(length=0.302, breadth=0.302, width=0.014)


def heading_about_base_z(base, pose):
    rel = base.rotation.T @ pose.rotation
    return math.atan2(rel[1, 0], rel[0, 0])


def straight_wall_spec(base=None, layers=3, per_layer=4):
    return LayoutSpec(
        kind=LayoutKind.STRAIGHT_WALL,
        base=base if base is not None else Pose.identity(),
        dims=BRICK,
        layers=layers,
        per_layer=per_layer,
        layer_offset=((BRICK.length + 0.002) / 2.0, 0.0),
        spacing=(0.002, 0.0, 0.0),
    )


def test_delta_offset_parity():
    assert delta_offset(2, 0.05) == 0.05
    assert delta_offset(3, 0.05) == 0.0
    assert delta_offset(0, 0.05) == 0.05


def test_axis_steps_and_yaw():
    assert_allclose(translation_x(0.0528).translation, [0.0528, 0.0, 0.0])
    assert_allclose(translation_y(-0.1).translation, [0.0, -0.1, 0.0])
    # layer lift for the brick with 2 mm bed joint
    assert_allclose(translation_z(0.0508 + 0.002).translation,
                    [0.0, 0.0, 0.0528])
    g = yaw_rotation(math.pi / 2.0)
    assert_allclose(g.rotation @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0],
                    atol=1e-15)
    assert_allclose(g.translation, np.zeros(3))


def test_straight_wall_hand_unrolled():
    rng = np.random.default_rng(30)
    base = rand_pose(rng)
    spec = straight_wall_spec(base)
    goals = wall_goals(spec)
    assert len(goals) == 12
    pitch = BRICK.length + 0.002
    lift = BRICK.width
    half = pitch / 2.0
    by_index = {(g.i, g.j, g.k): g.pose for g in goals}
    for k in range(1, 4):
        x_layer = half if k % 2 == 0 else 0.0  # running bond
        for j in range(1, 5):
            expected = compose(base, Pose(np.eye(3), np.array(
                [x_layer + (j - 1) * pitch, 0.0, (k - 1) * lift])))
            rot, trans = pose_error(by_index[(1, j, k)], expected)
            assert rot < 1e-12 and trans < 1e-12


def test_straight_wall_layer_order_and_heights():
    goals = wall_goals(straight_wall_spec())
    # layer-major order, heights 0 / 0.0508 / 0.1016
    assert [g.k for g in goals] == [1] * 4 + [2] * 4 + [3] * 4
    z = sorted({round(g.pose.translation[2], 9) for g in goals})
    assert_allclose(z, [0.0, 0.0508, 0.1016], atol=1e-12)
    # odd layers aligned with each other, offset half a pitch from even
    x1 = goals[0].pose.translation[0]
    x2 = goals[4].pose.translation[0]
    x3 = goals[8].pose.translation[0]
    assert_allclose(x3, x1, atol=1e-12)
    assert_allclose(x2 - x1, (0.1016 + 0.002) / 2.0, atol=1e-12)


def test_curved_wall_cumulative_heading():
    theta = math.radians(120.0) / 11.0
    spec = LayoutSpec(kind=LayoutKind.CURVED_WALL, base=Pose.identity(),
                      dims=BRICK, layers=1, per_layer=12,
                      spacing=(0.002, 0.0, 0.0), per_step_yaw=theta)
    goals = wall_goals(spec)
    h0 = heading_about_base_z(spec.base, goals[0].pose)
    h1 = heading_about_base_z(spec.base, goals[-1].pose)
    assert abs((h1 - h0) - math.radians(120.0)) < 1e-9


def test_curved_wall_layers_stay_registered():
    theta = math.radians(120.0) / 3.0
    spec = LayoutSpec(kind=LayoutKind.CURVED_WALL, base=Pose.identity(),
                      dims=BRICK, layers=3, per_layer=4,
                      spacing=(0.002, 0.0, 0.0), per_step_yaw=theta)
    goals = wall_goals(spec)
    by_index = {(g.i, g.j, g.k): g.pose for g in goals}
    for k in (2, 3):
        for j in range(1, 5):
            lower = by_index[(1, j, 1)]
            upper = by_index[(1, j, k)]
            assert_allclose(upper.translation[:2], lower.translation[:2],
                            atol=1e-12)
            assert_allclose(upper.translation[2],
                            (k - 1) * BRICK.width, atol=1e-12)
            assert_allclose(upper.rotation, lower.rotation, atol=1e-12)


def test_corner_wall_hand_unrolled():
    # literal recurrence: step i applies X(delta(i+1, s)) Y(delta(i, s))
    # then the corner yaw; s = (l + b)/2 + spacing
    s = (BRICK.length + BRICK.breadth) / 2.0 + 0.002
    spec = LayoutSpec(kind=LayoutKind.CORNER_WALL, base=Pose.identity(),
                      dims=BRICK, layers=1, per_layer=4,
                      spacing=(0.002, 0.0, 0.0), corner_index=2)
    goals = corner_wall_goals(spec)
    expected_xy = [(0.0, 0.0), (0.0, s), (0.0, 2.0 * s), (-s, 2.0 * s)]
    expected_heading = [0.0, 90.0, 90.0, 90.0]
    for g, xy, hd in zip(goals, expected_xy, expected_heading):
        assert_allclose(g.pose.translation[:2], xy, atol=1e-12)
        assert_allclose(g.pose.translation[2], 0.0, atol=1e-12)
        assert abs(heading_about_base_z(spec.base, g.pose)
                   - math.radians(hd)) < 1e-12


def test_corner_wall_single_yaw_change():
    rng = np.random.default_rng(31)
    spec = LayoutSpec(kind=LayoutKind.CORNER_WALL, base=rand_pose(rng),
                      dims=BRICK, layers=2, per_layer=6,
                      spacing=(0.002, 0.0, 0.0), corner_index=4)
    goals = corner_wall_goals(spec)
    for k in (1, 2):
        layer = [g for g in goals if g.k == k]
        headings = [heading_about_base_z(spec.base, g.pose) for g in layer]
        jumps = [abs(b - a) for a, b in zip(headings, headings[1:])]
        big = [j for j in jumps if j > 1e-9]
        assert len(big) == 1
        assert abs(big[0] - math.pi / 2.0) < 1e-12


def test_corner_wall_corner_at_end():
    spec = LayoutSpec(kind=LayoutKind.CORNER_WALL, base=Pose.identity(),
                      dims=BRICK, layers=1, per_layer=4,
                      spacing=(0.002, 0.0, 0.0), corner_index=4)
    goals = corner_wall_goals(spec)
    for g in goals[:-1]:
        assert_allclose(g.pose.rotation, np.eye(3), atol=1e-12)
    assert abs(heading_about_base_z(spec.base, goals[-1].pose)
               - math.pi / 2.0) < 1e-12


def test_ceiling_grid_hand_unrolled():
    rng = np.random.default_rng(32)
    base = rand_pose(rng)
    spec = LayoutSpec(kind=LayoutKind.CEILING_GRID, base=base, dims=TILE,
                      layers=2, per_layer=2, spacing=(0.004, 0.004, 0.0))
    goals = ceiling_goals(spec)
    assert [(g.i, g.j) for g in goals] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    step = 0.302 + 0.004
    offsets = [(0.0, 0.0), (step, 0.0), (0.0, step), (step, step)]
    for g, (x, y) in zip(goals, offsets):
        expected = compose(base, Pose(np.eye(3), np.array([x, y, 0.0])))
        rot, trans = pose_error(g.pose, expected)
        assert rot < 1e-12 and trans < 1e-12


def test_layout_goals_dispatch_and_base_equivariance():
    rng = np.random.default_rng(33)
    h = rand_pose(rng)
    for spec in (straight_wall_spec(),
                 LayoutSpec(kind=LayoutKind.CEILING_GRID,
                            base=Pose.identity(), dims=TILE, layers=2,
                            per_layer=3, spacing=(0.004, 0.004, 0.0))):
        a = layout_goals(spec)
        moved = LayoutSpec(kind=spec.kind, base=compose(h, spec.base),
                           dims=spec.dims, layers=spec.layers,
                           per_layer=spec.per_layer,
                           layer_offset=spec.layer_offset,
                           spacing=spec.spacing,
                           per_step_yaw=spec.per_step_yaw,
                           corner_index=spec.corner_index)
        b = layout_goals(moved)
        for ga, gb in zip(a, b):
            rot, trans = pose_error(compose(h, ga.pose), gb.pose)
            assert rot < 1e-12 and trans < 1e-12


def test_spec_validation():
    with pytest.raises(InvalidLayoutError):
        LayoutSpec(kind=LayoutKind.STRAIGHT_WALL, base=Pose.identity(),
                   dims=BRICK, layers=0, per_layer=4)
    with pytest.raises(InvalidLayoutError):
        LayoutSpec(kind=LayoutKind.STRAIGHT_WALL, base=Pose.identity(),
                   dims=BRICK, layers=1, per_layer=4,
                   spacing=(-0.01, 0.0, 0.0))
    with pytest.raises(InvalidLayoutError):
        LayoutSpec(kind=LayoutKind.STRAIGHT_WALL, base=Pose.identity(),
                   dims=BRICK, layers=1, per_layer=4,
                   per_step_yaw=0.1)  # straight wall cannot yaw
    with pytest.raises(InvalidLayoutError):
        LayoutSpec(kind=LayoutKind.CURVED_WALL, base=Pose.identity(),
                   dims=BRICK, layers=1, per_layer=4)  # theta = 0
    with pytest.raises(InvalidLayoutError):
        LayoutSpec(kind=LayoutKind.CORNER_WALL, base=Pose.identity(),
                   dims=BRICK, layers=1, per_layer=4, corner_index=9)
    with pytest.raises(InvalidLayoutError):
        ObjectDims(length=0.0, breadth=0.1, width=0.1)
    with pytest.raises(InvalidLayoutError):
        wall_goals(LayoutSpec(kind=LayoutKind.CEILING_GRID,
                              base=Pose.identity(), dims=TILE, layers=1,
                              per_layer=1))


def test_pick_stack_descends_by_width():
    base = Pose(np.eye(3), np.array([0.5, -0.3, 0.0]))
    picks = pick_stack(base, 3, BRICK)
    z = [p.translation[2] for p in picks]
    assert_allclose(z, [2 * BRICK.width, BRICK.width, 0.0], atol=1e-15)
    assert_allclose(picks[0].translation[:2], [0.5, -0.3])


def test_make_task_instances_zips_and_checks_length():
    spec = straight_wall_spec()
    goals = wall_goals(spec)
    picks = pick_stack(Pose.identity(), len(goals), BRICK)
    instances = make_task_instances(goals, picks)
    assert len(instances) == len(goals)
    rot, trans = pose_error(instances[0].goal, goals[0].pose)
    assert rot == 0.0 and trans == 0.0
    with pytest.raises(LengthMismatchError):
        make_task_instances(goals, picks[:-1])


def test_layout_spec_file_round_trip(tmp_path):
    spec = straight_wall_spec(base=Pose(quat_to_rot([0.9, 0.1, 0.2, 0.1]),
                                        np.array([0.4, -0.1, 0.02])))
    f = tmp_path / "layout.json"
    save_layout_spec(spec, f)
    back = load_layout_spec(f)
    assert back.kind == spec.kind
    assert back.layers == spec.layers and back.per_layer == spec.per_layer
    assert_allclose(back.layer_offset, spec.layer_offset)
    assert_allclose(back.spacing, spec.spacing)
    rot, trans = pose_error(back.base, spec.base)
    assert rot < 1e-12 and trans < 1e-12
    a = [g.pose.translation for g in layout_goals(spec)]
    b = [g.pose.translation for g in layout_goals(back)]
    assert_allclose(a, b, atol=1e-12)


def test_layout_spec_file_rejects_bad_units(tmp_path):
    f = tmp_path / "layout.json"
    save_layout_spec(straight_wall_spec(), f)
    doc = json.loads(f.read_text())
    doc["units"]["length"] = "mm"
    f.write_text(json.dumps(doc))
    with pytest.raises(InvalidLayoutError):
        load_layout_spec(f)


def test_goal_sequence_round_trip(tmp_path):
    spec = LayoutSpec(kind=LayoutKind.CORNER_WALL, base=Pose.identity(),
                      dims=ObjectDims(0.2, 0.1, 0.05), layers=2,
                      per_layer=3, corner_index=2)
    goals = layout_goals(spec)
    path = tmp_path / "goals.json"
    save_goal_sequence(goals, path)
    back = load_goal_sequence(path)
    assert [(g.i, g.j, g.k) for g in back] == \
        [(g.i, g.j, g.k) for g in goals]
    for a, b in zip(back, goals):
        rot, trans = pose_error(a.pose, b.pose)
        assert rot < 1e-14 and trans < 1e-14
    path.write_text(json.dumps({"format": "goals", "goals": []}))
    with pytest.raises(InvalidLayoutError):
        load_goal_sequence(path)
    path.write_text('{"format": "goal_sequence", ')
    with pytest.raises(InvalidLayoutError, match="not valid JSON"):
        load_goal_sequence(path)
