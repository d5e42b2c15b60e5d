"""``Field.max_free_travel`` ray by ray, on open and obstacle fields.

The query bisects for the longest admissible prefix of a straight move
(24 halvings of ``distance``).  Pinned here for random rays, including
starts outside the field, zero directions and zero distances: the answer
lies in ``[0, distance]``; a positive answer ends at a free point reached
without crossing an obstacle; a short answer is within the bisection's
resolution of a blocked point.  The float bisection and the obstacle
forces on the same fields give bit for bit the answers of the ``Vec2``
references in ``tests/oracles``.
"""

import math

import numpy as np
import pytest

from repro.core import VirtualForceModel
from repro.field import Field
from repro.field.obstacles import Obstacle
from repro.geometry import Polygon, Segment, Vec2
from tests.oracles import reference_max_free_travel, reference_obstacle_force

#: Width of the final bisection bracket, as a fraction of ``distance``.
_RESOLUTION = 2.0 ** -24


def _admissible(field, start, end):
    return field.is_free(end) and not field.segment_blocked(Segment(start, end))


def _fields():
    return {
        "open": Field(200.0, 150.0),
        "rectangles": Field(
            200.0,
            150.0,
            [
                Obstacle.rectangle(40, 40, 90, 70),
                Obstacle.rectangle(120, 20, 150, 130),
            ],
        ),
        "rotated-square": Field(
            120.0,
            120.0,
            [
                Obstacle(
                    Polygon([Vec2(50, 10), Vec2(90, 50), Vec2(50, 90), Vec2(10, 50)])
                )
            ],
        ),
        "concave-L": Field(
            120.0,
            120.0,
            [
                Obstacle(
                    Polygon([
                        Vec2(10, 10),
                        Vec2(70, 10),
                        Vec2(70, 30),
                        Vec2(30, 30),
                        Vec2(30, 70),
                        Vec2(10, 70),
                    ])
                )
            ],
        ),
    }


@pytest.mark.parametrize("seed", [3, 5, 9])
@pytest.mark.parametrize("name", sorted(_fields()))
def test_rays_stop_at_the_last_admissible_point(name, seed):
    field = _fields()[name]
    rng = np.random.default_rng(seed)
    rays = 200
    px = rng.uniform(-5, field.width + 5, rays)
    py = rng.uniform(-5, field.height + 5, rays)
    angles = rng.uniform(0, 2 * math.pi, rays)
    dx, dy = np.cos(angles), np.sin(angles)
    # Mix zero directions and zero distances into the rays.
    dx[::17] = 0.0
    dy[::17] = 0.0
    dist = rng.uniform(0.0, 50.0, rays)
    dist[::13] = 0.0
    stopped = 0
    for i in range(rays):
        start = Vec2(float(px[i]), float(py[i]))
        direction = Vec2(float(dx[i]), float(dy[i]))
        distance = float(dist[i])
        travel = field.max_free_travel(
            start.x, start.y, direction.x, direction.y, distance
        )
        assert 0.0 <= travel <= distance
        if distance == 0.0 or (dx[i] == 0.0 and dy[i] == 0.0):
            assert travel == 0.0
            continue
        unit = direction * (1.0 / math.hypot(direction.x, direction.y))
        if travel > 0.0:
            assert _admissible(field, start, start + unit * travel), f"ray {i}"
        if travel < distance:
            beyond = min(distance, travel + 2.0 * _RESOLUTION * distance)
            assert not _admissible(field, start, start + unit * beyond), (
                f"ray {i}: stopped at {travel!r} of {distance!r}"
            )
            stopped += 1
    assert stopped  # some rays run into an edge or an obstacle


def _probe_points(field, rng, count):
    """Random points (some outside the field), obstacle vertices, points on
    the obstacle boundaries, inside them and at the force cutoff."""
    points = [
        Vec2(float(x), float(y))
        for x, y in zip(
            rng.uniform(-5, field.width + 5, count),
            rng.uniform(-5, field.height + 5, count),
        )
    ]
    for ob in field.obstacles:
        polygon = ob.polygon
        points += list(polygon.vertices)
        for edge in polygon.edges():
            for t in rng.uniform(0.0, 1.0, 4):
                points.append(edge.point_at(float(t)))
        xmin, ymin, xmax, ymax = polygon.bounding_box()
        for x, y in zip(rng.uniform(xmin, xmax, 20), rng.uniform(ymin, ymax, 20)):
            points.append(Vec2(float(x), float(y)))
        rxmin, rymin, rxmax, rymax = polygon.reject_box()
        for gap in (40.0 - 1e-9, 40.0, 40.0 + 1e-9):
            y = float(rng.uniform(rymin, rymax))
            x = float(rng.uniform(rxmin, rxmax))
            points += [
                Vec2(rxmin - gap, y),
                Vec2(rxmax + gap, y),
                Vec2(x, rymin - gap),
                Vec2(x, rymax + gap),
            ]
    return points


@pytest.mark.parametrize("seed", [3, 5, 9])
@pytest.mark.parametrize("name", sorted(_fields()))
def test_float_bisection_matches_the_vec2_reference(name, seed):
    field = _fields()[name]
    rng = np.random.default_rng(seed)
    starts = _probe_points(field, rng, 60)
    angles = rng.uniform(0, 2 * math.pi, len(starts))
    dist = rng.uniform(0.0, 50.0, len(starts))
    dist[::13] = 0.0
    # Unit, long and sub-cutoff (norm <= 1e-9) directions.
    scales = (1.0, 1.0, 3.7, 0.25, 2e-9, 5e-10)
    for i, start in enumerate(starts):
        scale = scales[i % len(scales)]
        direction = Vec2(
            float(math.cos(angles[i])) * scale, float(math.sin(angles[i])) * scale
        )
        if i % 17 == 0:
            direction = Vec2(0.0, 0.0)
        distance = float(dist[i])
        assert field.max_free_travel(
            start.x, start.y, direction.x, direction.y, distance
        ) == reference_max_free_travel(field, start, direction, distance), (
            f"ray {i} from {start!r}"
        )


@pytest.mark.parametrize("seed", [3, 5, 9])
@pytest.mark.parametrize("name", sorted(_fields()))
def test_obstacle_force_matches_the_uncut_reference(name, seed):
    field = _fields()[name]
    model = VirtualForceModel(repulsion_distance=80.0, obstacle_distance=40.0)
    for p in _probe_points(field, np.random.default_rng(seed), 100):
        expected = reference_obstacle_force(model, p, field)
        assert model.force_from_obstacles(p.x, p.y, field) == (
            expected.x,
            expected.y,
        ), p
