"""``Field.max_free_travel`` ray by ray, on open and obstacle fields.

The query clips a straight move at the field walls and at the first
obstacle interior it enters.  Pinned here for random rays, including
starts outside the field, zero directions and zero distances: the answer
lies in ``[0, distance]``; a positive answer ends at a free point
(computed as the query computes it) reached without crossing an
obstacle; a short answer belongs to a blocked move and agrees with the
exact ``Fraction`` reference (``tests/oracles/entry.py``) to 1e-9 m.
The obstacle forces on the same fields give bit for bit the answers of
the ``Vec2`` reference in ``tests/oracles``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import VirtualForceModel
from repro.field import Field
from repro.field.obstacles import Obstacle
from repro.geometry import Polygon, Vec2
from tests.oracles import free_travel_error, reference_obstacle_force


def _end(x, y, dir_x, dir_y, travel):
    """The end point of the move, with ``max_free_travel``'s operations."""
    norm = math.hypot(dir_x, dir_y)
    return x + dir_x / norm * travel, y + dir_y / norm * travel


def _admissible(field, x, y, ex, ey):
    """A free end point, and no obstacle interior entered on the way."""
    return field.is_free_xy(ex, ey) and not any(
        ob.polygon.first_entry_xy(x, y, ex, ey) is not None for ob in field.obstacles
    )


def assert_travel(field, x, y, dir_x, dir_y, distance):
    """The answer's end point is free and reached without crossing an
    interior; a short answer belongs to a blocked move; the answer
    agrees with the exact reference to within 1e-9 m."""
    travel = field.max_free_travel(x, y, dir_x, dir_y, distance)
    assert 0.0 <= travel <= distance
    if travel > 0.0:
        assert _admissible(field, x, y, *_end(x, y, dir_x, dir_y, travel))
    if 0.0 < travel < distance:
        assert not _admissible(field, x, y, *_end(x, y, dir_x, dir_y, distance))
    assert free_travel_error(field, x, y, dir_x, dir_y, distance, travel) is None
    return travel


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
def test_rays_stop_at_the_first_blocked_point(name, seed):
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
        x, y = float(px[i]), float(py[i])
        dir_x, dir_y, distance = float(dx[i]), float(dy[i]), float(dist[i])
        travel = assert_travel(field, x, y, dir_x, dir_y, distance)
        if distance == 0.0 or (dir_x == 0.0 and dir_y == 0.0):
            assert travel == 0.0
        elif travel < distance:
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
def test_travel_matches_the_exact_reference(name, seed):
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
        dir_x = float(math.cos(angles[i])) * scale
        dir_y = float(math.sin(angles[i])) * scale
        if i % 17 == 0:
            dir_x = dir_y = 0.0
        assert_travel(field, start.x, start.y, dir_x, dir_y, float(dist[i]))


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


# ----------------------------------------------------------------------
# Fuzzed fields: touching and overlapping rectangles, slivers, polygons
# ----------------------------------------------------------------------
_grid = st.integers(min_value=0, max_value=10).map(lambda k: 10.0 * k)


@st.composite
def _rectangle(draw):
    x0, x1 = sorted(draw(st.lists(_grid, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(_grid, min_size=2, max_size=2, unique=True)))
    return Obstacle.rectangle(x0, y0, x1, y1)


@st.composite
def _sliver(draw):
    """A 1e-3 m wall, axis-aligned or at an angle."""
    x, y = draw(_grid), draw(_grid)
    angle = draw(st.sampled_from((0.0, math.pi / 2, 0.7)))
    start = Vec2(x, y)
    end = start + Vec2.from_polar(draw(st.floats(5.0, 60.0)), angle)
    normal = Vec2.from_polar(1e-3, angle + math.pi / 2)
    return Obstacle(Polygon([start, end, end + normal, start + normal]))


@st.composite
def _polygon(draw):
    x, y = draw(_grid), draw(_grid)
    if draw(st.booleans()):
        return Obstacle(
            Polygon([Vec2(x, y), Vec2(x + 30, y), Vec2(x + 30, y + 8), Vec2(x + 8, y + 8),
                     Vec2(x + 8, y + 30), Vec2(x, y + 30)])
        )
    return Obstacle(Polygon([Vec2(x, y), Vec2(x + 25, y + 5), Vec2(x + 5, y + 20)]))


@st.composite
def _fields_and_moves(draw):
    obstacles = draw(
        st.lists(st.one_of(_rectangle(), _rectangle(), _sliver(), _polygon()),
                 min_size=1, max_size=5)
    )
    field = Field(100.0, 100.0, obstacles)
    corners = [v for ob in obstacles for v in ob.polygon.vertices]
    corners += [Vec2(0, 0), Vec2(100, 0), Vec2(100, 100), Vec2(0, 100)]
    offsets = st.sampled_from((0.0, 0.0, 1e-9, -1e-9, 1e-7, -1e-7, 2e-7, -2e-7, 0.5))

    def anchor():
        # A vertex, a point on an edge, or anywhere, nudged.
        kind = draw(st.sampled_from(("vertex", "edge", "free")))
        if kind == "vertex":
            p = draw(st.sampled_from(corners))
        elif kind == "edge":
            edge = draw(st.sampled_from([e for ob in obstacles for e in ob.boundary_edges()]))
            p = edge.point_at(draw(st.floats(0.0, 1.0)))
        else:
            p = Vec2(draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, 100.0)))
        return Vec2(p.x + draw(offsets), p.y + draw(offsets))

    start = anchor()
    if draw(st.booleans()):
        toward = anchor()
        dir_x, dir_y = toward.x - start.x, toward.y - start.y
    else:
        angle = draw(st.sampled_from((0.0, math.pi / 2, math.pi, -math.pi / 2)))
        angle = draw(st.one_of(st.just(angle), st.floats(0.0, 2 * math.pi)))
        dir_x, dir_y = math.cos(angle), math.sin(angle)
    distance = draw(st.sampled_from((0.5, 2.0, 10.0, 60.0, 150.0)))
    return field, start.x, start.y, dir_x, dir_y, distance


@settings(max_examples=300, deadline=None)
@given(_fields_and_moves())
def test_fuzzed_moves_stop_at_the_exact_entry(case):
    assert_travel(*case)
