"""The obstacle table's queries against the all-obstacle references.

``Field`` tests each obstacle's reject box inline (one table per
``field.version``) and ``max_free_travel`` runs its probes against only
the obstacles near the whole move.  Both are exact shortcuts: on fuzzed
points and moves that graze reject boxes, start inside obstacles, cross
overlapping rectangles, run along touching walls or meet polygons, every
query returns exactly (``==``) what ``tests/oracles/field.py`` returns
by walking every obstacle, before and after obstacles are added and
removed.
"""

import math
import random

import pytest

from repro.core import VirtualForceModel
from repro.field import Field, Obstacle
from repro.geometry import Polygon, Vec2
from tests.oracles import (
    all_obstacle_boundary_pieces,
    all_obstacle_force,
    all_obstacle_is_free,
    all_obstacle_max_free_travel,
    all_obstacle_nearest_free,
    all_obstacle_segment_blocked,
)

#: Offsets from a box edge or vertex: on it, within the boundary eps,
#: the rounding slack and far outside either.
_OFFSETS = (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-7, -1e-7, 2e-7, -2e-7, 1e-3, -1e-3)


def _fields():
    return {
        "overlapping": Field(
            200.0,
            150.0,
            [
                Obstacle.rectangle(40, 40, 90, 70),
                Obstacle.rectangle(70, 55, 120, 100),
                Obstacle.rectangle(150, 10, 160, 140),
            ],
        ),
        "touching-walls": Field(
            200.0,
            200.0,
            [
                Obstacle.rectangle(0, 95, 80, 105),
                Obstacle.rectangle(80, 95, 160, 105),
                Obstacle.rectangle(95, 105, 105, 200),
                Obstacle.rectangle(60, 0, 70, 95),
            ],
        ),
        "polygons": Field(
            160.0,
            160.0,
            [
                Obstacle(
                    Polygon([Vec2(50, 10), Vec2(90, 50), Vec2(50, 90), Vec2(10, 50)])
                ),
                Obstacle(
                    Polygon([
                        Vec2(100, 100),
                        Vec2(150, 100),
                        Vec2(150, 115),
                        Vec2(115, 115),
                        Vec2(115, 150),
                        Vec2(100, 150),
                    ])
                ),
                Obstacle(Polygon([Vec2(110, 20), Vec2(150, 30), Vec2(120, 70)])),
            ],
        ),
    }


def _box_points(field, rng, count):
    """Points on, just inside and just outside the obstacles' reject
    boxes, bounding boxes and vertices, plus uniform points."""
    anchors = []
    for ob in field.obstacles:
        for box in (ob.polygon.reject_box(), ob.polygon.bounding_box()):
            xmin, ymin, xmax, ymax = box
            anchors += [(xmin, ymin), (xmax, ymax), (xmin, ymax), (xmax, ymin)]
            anchors += [
                (xmin, rng.uniform(ymin, ymax)),
                (rng.uniform(xmin, xmax), ymax),
            ]
        anchors += [(v.x, v.y) for v in ob.polygon.vertices]
    points = []
    for _ in range(count):
        if rng.random() < 0.25:
            points.append(
                (rng.uniform(-2, field.width + 2), rng.uniform(-2, field.height + 2))
            )
            continue
        ax, ay = rng.choice(anchors)
        points.append((ax + rng.choice(_OFFSETS), ay + rng.choice(_OFFSETS)))
    return points


def _moves(field, rng, count):
    """``(x, y, dir_x, dir_y, distance)`` from the box points: random
    headings, headings along the axes (runs along walls) and headings at
    another box point (crossings of one or two obstacles)."""
    points = _box_points(field, rng, count)
    moves = []
    for x, y in points:
        kind = rng.random()
        if kind < 0.3:
            angle = rng.uniform(0, 2 * math.pi)
            dx, dy = math.cos(angle), math.sin(angle)
        elif kind < 0.6:
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        else:
            tx, ty = rng.choice(points)
            dx, dy = tx - x, ty - y
        distance = rng.choice((0.5, 2.0, 10.0, 60.0, rng.uniform(0, 80)))
        moves.append((x, y, dx, dy, distance))
    return moves


def _assert_parity(field, seed):
    rng = random.Random(seed)
    model = VirtualForceModel(repulsion_distance=80.0, obstacle_distance=40.0)
    for x, y in _box_points(field, rng, 300):
        assert field.is_free_xy(x, y) == all_obstacle_is_free(field, x, y)
        assert field.nearest_free(Vec2(x, y)) == all_obstacle_nearest_free(
            field, Vec2(x, y)
        )
        assert model.force_from_obstacles(x, y, field) == all_obstacle_force(
            model, x, y, field
        )
        radius = rng.choice((1.0, 10.0, 40.0))
        assert field.boundary_pieces_within(x, y, radius) == (
            all_obstacle_boundary_pieces(field, x, y, radius)
        )
    for x, y, dx, dy, distance in _moves(field, rng, 300):
        assert field.max_free_travel(x, y, dx, dy, distance) == (
            all_obstacle_max_free_travel(field, x, y, dx, dy, distance)
        )
        norm = math.hypot(dx, dy) or 1.0
        bx, by = x + dx / norm * distance, y + dy / norm * distance
        assert field.segment_blocked_xy(x, y, bx, by) == (
            all_obstacle_segment_blocked(field, x, y, bx, by)
        )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(_fields()))
def test_queries_match_the_all_obstacle_references(name, seed):
    _assert_parity(_fields()[name], seed)


def test_disks_grazing_a_box_get_the_same_pieces():
    field = _fields()["polygons"]
    rng = random.Random(4)
    for ob in field.obstacles:
        xmin, ymin, xmax, ymax = ob.polygon.reject_box()
        for _ in range(40):
            radius = rng.choice((5.0, 20.0))
            offset = rng.choice(_OFFSETS)
            cy = rng.uniform(ymin, ymax)
            for cx in (xmin - radius + offset, xmax + radius + offset):
                assert field.boundary_pieces_within(cx, cy, radius) == (
                    all_obstacle_boundary_pieces(field, cx, cy, radius)
                )


def test_parity_holds_after_adding_and_removing_obstacles():
    field = _fields()["overlapping"]
    version = field.version
    field.add_obstacle(Obstacle.rectangle(20, 100, 60, 140))
    field.add_obstacle(
        Obstacle(Polygon([Vec2(170, 60), Vec2(195, 75), Vec2(175, 100)]))
    )
    assert len(field.obstacle_table()) == 5
    _assert_parity(field, 3)
    field.remove_obstacle(0)
    field.remove_obstacle(2)
    assert [entry[4] for entry in field.obstacle_table()] == [
        ob.polygon for ob in field.obstacles
    ]
    _assert_parity(field, 4)
    assert field.version == version + 4


def test_the_table_is_built_once_per_version():
    field = _fields()["polygons"]
    table = field.obstacle_table()
    assert field.obstacle_table() is table
    assert [entry[:4] for entry in table] == [
        ob.polygon.reject_box() for ob in field.obstacles
    ]
    field.add_obstacle(Obstacle.rectangle(1, 1, 5, 5))
    assert field.obstacle_table() is not table


def test_an_open_field_stops_moves_at_the_wall_only():
    field = Field(100.0, 80.0)
    rng = random.Random(5)
    for _ in range(300):
        x, y = rng.uniform(-1, 101), rng.uniform(-1, 81)
        angle = rng.uniform(0, 2 * math.pi)
        dx, dy = math.cos(angle), math.sin(angle)
        distance = rng.uniform(0, 120)
        assert field.max_free_travel(x, y, dx, dy, distance) == (
            all_obstacle_max_free_travel(field, x, y, dx, dy, distance)
        )
    assert field.obstacle_table() == ()
